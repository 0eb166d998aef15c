//! The VIP/RIP manager (§III.C).
//!
//! "Various control elements such as individual server pod managers, as
//! well as the global manager, can have independent and potentially
//! competing needs for VIP/RIP configuration. In order to mediate and
//! serialize all requests for VIP/RIP (re)configuration, we assign the
//! responsibility to process any such requests to the global manager. …
//! The global manager processes the requests sequentially according to
//! their priority."
//!
//! The manager owns the two allocation policies the paper spells out:
//!
//! * **New VIP** → "identifies an underloaded switch (i.e., one with few
//!   already-configured VIPs and a low data throughput being handled)".
//! * **New RIP** → "considers the switches that host one of the VIPs of
//!   the corresponding application, selects the most appropriate switch
//!   with spare RIP capacity", scoring by throughput and RIP occupancy.
//!
//! It also implements the §IV.F constraint for pod-requested weight
//! changes: "the total weight of the RIPs in the pod remains the same and
//! therefore the load on other pods is not affected".
//!
//! The drain checks each `AdjustPodWeights` at its turn, with the same
//! arithmetic it applies it with (`VipRipManager::pod_weight_writes`): a
//! request that would succeed and leave every weight bit as it is gets
//! skipped (no write, no pair, not [`VipRipManager::processed`]). In a
//! steady pod most requests are such no-ops. A *settled* drain (the
//! previous drain processed nothing, and nothing its verdicts read has
//! moved since; see `Platform::weights_settled`) counts them unchanged
//! without the walk until it processes a request. A pod's requests wait
//! in one weight arena the manager owns and clears after each drain; only
//! an applied or failed one becomes a [`Request`] with its own weight
//! list.

use crate::ids::{AppId, PodId};
use crate::state::{PlatformState, StateError};
use lbswitch::{LbSwitch, RipAddr, SwitchId, VipAddr};
use std::collections::BTreeSet;
use std::ops::Range;
use vmm::VmId;

/// Request priority: lower value = processed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Global-manager knobs (overload relief) go first.
    High,
    /// Pod-manager provisioning.
    Normal,
    /// Cleanup (deletions, weight trims).
    Low,
}

impl Priority {
    /// Drain position: `High` is 0, `Low` is 2.
    fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A VIP/RIP configuration request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Allocate a new VIP for an application on an underloaded switch.
    NewVip {
        /// The application.
        app: AppId,
    },
    /// Bind a RIP for a VM under one of its app's VIPs (manager picks the
    /// switch/VIP).
    NewRip {
        /// The application (must own the VM).
        app: AppId,
        /// The backing VM.
        vm: VmId,
        /// Initial load-balancing weight.
        weight: f64,
    },
    /// Remove a VM's RIP.
    DeleteRip {
        /// The VM whose RIP should be unbound.
        vm: VmId,
    },
    /// Set the weight of a VM's RIP (global-manager inter-pod balancing,
    /// §IV.F).
    SetWeight {
        /// The VM whose RIP weight changes.
        vm: VmId,
        /// The new weight.
        weight: f64,
    },
    /// Pod-requested intra-pod reweighting under one VIP (§IV.F): the
    /// manager rescales so the pod's total weight under that VIP is
    /// preserved, keeping other pods unaffected.
    AdjustPodWeights {
        /// The requesting pod.
        pod: PodId,
        /// The VIP whose RIP weights change.
        vip: VipAddr,
        /// Requested relative weights per VM.
        weights: Vec<(VmId, f64)>,
    },
}

/// Outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A VIP was allocated on the given switch.
    VipAllocated(VipAddr, SwitchId),
    /// A RIP was bound under the given VIP.
    RipBound(RipAddr, VipAddr),
    /// Operation completed.
    Done,
    /// Operation failed.
    Failed(String),
}

/// §III.C new-VIP score: fewest configured VIPs + lowest throughput.
/// Never negative (`+0.0` at the least), so `to_bits` order is numeric
/// order.
fn vip_switch_score(sw: &LbSwitch) -> f64 {
    sw.vip_count() as f64 / sw.limits().max_vips as f64 + sw.utilization()
}

/// The switches a `NewVip` may land on — healthy, with a free VIP slot —
/// ordered by `(score bits, id)`, so the first entry is the full scan's
/// first minimum in id order. Valid for one drain only: within a drain
/// only `NewVip` changes a switch's VIP count, offered total or health,
/// and it re-indexes the switch it chose.
struct VipSwitchIndex(BTreeSet<(u64, SwitchId)>);

impl VipSwitchIndex {
    fn new(state: &PlatformState) -> Self {
        let mut index = VipSwitchIndex(BTreeSet::new());
        for sw in &state.switches {
            index.insert(state, sw.id());
        }
        index
    }

    /// Index `id` under its current score, if it can take a VIP.
    fn insert(&mut self, state: &PlatformState, id: SwitchId) {
        let sw = &state.switches[id.0 as usize];
        if state.switch_healthy(id) && sw.vip_slots_free() > 0 {
            let score = vip_switch_score(sw);
            debug_assert!(score.is_sign_positive() && !score.is_nan(), "{score}");
            self.0.insert((score.to_bits(), id));
        }
    }

    /// Take the lowest-scoring switch out of the index.
    fn pop_min(&mut self) -> Option<SwitchId> {
        self.0.pop_first().map(|(_, id)| id)
    }
}

/// One queued request.
#[derive(Debug)]
enum Queued {
    /// A request as submitted.
    Request(Request),
    /// A pod's `AdjustPodWeights` ([`VipRipManager::submit_pod_weights`]).
    PodWeights {
        pod: PodId,
        vip: VipAddr,
        /// Its weights: a range of [`VipRipManager::pod_weights`].
        weights: Range<usize>,
    },
}

/// Scratch for the §IV.F arithmetic of one pod weight request
/// ([`VipRipManager::pod_weight_writes`]).
#[derive(Debug, Default)]
struct PodWeightScratch {
    /// The pod's entries under the VIP, `(rip, current weight)`, sorted by
    /// RIP.
    pod: Vec<(RipAddr, f64)>,
    /// One `(rip, new weight, current weight)` per requested VM, in
    /// request order.
    writes: Vec<(RipAddr, f64, f64)>,
}

/// The serialized VIP/RIP configuration mediator.
#[derive(Debug, Default)]
pub struct VipRipManager {
    /// One FIFO per priority, indexed by [`Priority::rank`].
    queues: [Vec<Queued>; 3],
    /// The weight lists of the queued pod requests, back to back; cleared
    /// after each drain.
    pod_weights: Vec<(VmId, f64)>,
    processed: u64,
    failed: u64,
    unchanged: u64,
    reused: u64,
    /// When set, every submitted request in submission order, as its
    /// priority and `Debug` text (which prints each weight's exact
    /// value): what differential tests compare.
    #[cfg(test)]
    pub(crate) submitted: Option<Vec<String>>,
}

impl VipRipManager {
    /// New empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a request.
    pub fn submit(&mut self, priority: Priority, request: Request) {
        #[cfg(test)]
        if let Some(log) = &mut self.submitted {
            log.push(format!("{priority:?} {request:?}"));
        }
        self.queues[priority.rank()].push(Queued::Request(request));
    }

    /// Enqueue `AdjustPodWeights { pod, vip, weights }` at `Normal`
    /// priority, its weights copied into the manager's arena.
    pub(crate) fn submit_pod_weights(&mut self, pod: PodId, vip: VipAddr, weights: &[(VmId, f64)]) {
        #[cfg(test)]
        if let Some(log) = &mut self.submitted {
            log.push(format!(
                "Normal AdjustPodWeights {pod:?} {vip:?} {weights:?}"
            ));
        }
        let start = self.pod_weights.len();
        self.pod_weights.extend_from_slice(weights);
        self.queues[Priority::Normal.rank()].push(Queued::PodWeights {
            pod,
            vip,
            weights: start..self.pod_weights.len(),
        });
    }

    /// Pending request count.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Requests processed so far. A skipped pod weight request is not
    /// processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Requests that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Pod weight requests the drain skipped so far, because they would
    /// have changed no weight bit.
    pub(crate) fn unchanged(&self) -> u64 {
        self.unchanged
    }

    /// Skipped pod weight requests that a settled drain counted on the
    /// previous drain's verdict, without the §IV.F walk.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Drain the queue in (priority, FIFO) order, applying each request to
    /// the platform state. Returns `(request, response)` pairs in
    /// processing order; a skipped pod weight request has no pair. Every
    /// pod weight request is checked; only the platform's own drain may
    /// reuse a settled verdict.
    pub fn process_all(&mut self, state: &mut PlatformState) -> Vec<(Request, Response)> {
        self.drain(state, false)
    }

    /// [`VipRipManager::process_all`], told whether the drain is
    /// *settled*: the previous drain processed no request, and nothing its
    /// pod weight verdicts read has changed since (see
    /// [`Platform::step`](crate::Platform::step)). Until a settled drain
    /// processes a request, it counts each queued pod weight request as
    /// unchanged without the §IV.F walk; debug builds still run the walk
    /// and assert that it writes nothing.
    pub(crate) fn drain(
        &mut self,
        state: &mut PlatformState,
        mut settled: bool,
    ) -> Vec<(Request, Response)> {
        let mut out = Vec::new();
        // Built at the drain's first `NewVip`; dropped with the drain.
        let mut vip_switches = None;
        let mut scratch = PodWeightScratch::default();
        // `&mut self` holds off `submit` until the drain ends, so draining
        // the FIFOs one after another is (priority, FIFO) order.
        for queue in &mut self.queues {
            for queued in queue.drain(..) {
                let applied = match queued {
                    Queued::Request(request) => {
                        Self::apply(state, &request, &mut vip_switches, &mut scratch)
                            .map(|resp| (request, resp))
                    }
                    Queued::PodWeights { pod, vip, weights } if settled => {
                        let weights = &self.pod_weights[weights];
                        debug_assert!(
                            Self::adjust_pod_weights(state, pod, vip, weights, &mut scratch)
                                .is_none(),
                            "a settled drain reused the verdict of a request that changes {vip}"
                        );
                        self.reused += 1;
                        None
                    }
                    Queued::PodWeights { pod, vip, weights } => {
                        let weights = &self.pod_weights[weights];
                        Self::adjust_pod_weights(state, pod, vip, weights, &mut scratch).map(
                            |resp| {
                                let weights = weights.to_vec();
                                (Request::AdjustPodWeights { pod, vip, weights }, resp)
                            },
                        )
                    }
                };
                let Some((request, resp)) = applied else {
                    self.unchanged += 1;
                    continue;
                };
                self.processed += 1;
                settled = false;
                if matches!(resp, Response::Failed(_)) {
                    self.failed += 1;
                }
                out.push((request, resp));
            }
        }
        self.pod_weights.clear();
        out
    }

    /// Apply one request; `None` for a pod weight request that would
    /// change no weight bit, which the drain skips.
    fn apply(
        state: &mut PlatformState,
        req: &Request,
        vip_switches: &mut Option<VipSwitchIndex>,
        scratch: &mut PodWeightScratch,
    ) -> Option<Response> {
        Some(match req {
            Request::NewVip { app } => {
                let index = vip_switches.get_or_insert_with(|| VipSwitchIndex::new(state));
                let Some(sw) = index.pop_min() else {
                    return Some(Response::Failed("no switch with free VIP capacity".into()));
                };
                let resp = match state.allocate_vip(*app, sw) {
                    Ok(vip) => Response::VipAllocated(vip, sw),
                    Err(e) => Response::Failed(e.to_string()),
                };
                index.insert(state, sw);
                resp
            }
            Request::NewRip { app, vm, weight } => match Self::pick_rip_vip(state, *app) {
                Some(vip) => match state.bind_rip(vip, *vm, *weight) {
                    Ok(rip) => Response::RipBound(rip, vip),
                    Err(e) => Response::Failed(e.to_string()),
                },
                None => Response::Failed(format!(
                    "no VIP of {app} on a switch with spare RIP capacity"
                )),
            },
            Request::DeleteRip { vm } => match state.remove_instance(*vm) {
                Ok(_) => Response::Done,
                Err(e) => Response::Failed(e.to_string()),
            },
            Request::SetWeight { vm, weight } => match Self::set_vm_weight(state, *vm, *weight) {
                Ok(()) => Response::Done,
                Err(e) => Response::Failed(e.to_string()),
            },
            Request::AdjustPodWeights { pod, vip, weights } => {
                return Self::adjust_pod_weights(state, *pod, *vip, weights, scratch);
            }
        })
    }

    /// Reference for [`VipSwitchIndex`]: the full scan over every switch,
    /// first minimum in id order.
    #[cfg(test)]
    fn pick_vip_switch(state: &PlatformState) -> Option<SwitchId> {
        state
            .switches
            .iter()
            .filter(|sw| state.switch_healthy(sw.id()) && sw.vip_slots_free() > 0)
            .min_by(|a, b| {
                vip_switch_score(a)
                    .partial_cmp(&vip_switch_score(b))
                    .expect("finite scores")
            })
            .map(|sw| sw.id())
    }

    /// §III.C new-RIP policy: among switches hosting a VIP of the app with
    /// spare RIP capacity, pick the lowest (RIP occupancy + throughput)
    /// score; ties prefer the VIP with the fewest RIPs (spreads instances
    /// across the app's VIPs).
    fn pick_rip_vip(state: &PlatformState, app: AppId) -> Option<VipAddr> {
        let record = state.app(app).ok()?;
        record
            .vips
            .iter()
            .filter_map(|&vip| {
                let sw = &state.switches[state.vip(vip).ok()?.switch.0 as usize];
                if !state.switch_healthy(sw.id()) || sw.rip_slots_free() == 0 {
                    return None;
                }
                let rips_on_vip = sw.vip(vip).ok()?.rips.len();
                // The spread term matters: piling an app's instances under
                // one VIP concentrates its demand on one 4 Gbps switch.
                let score = sw.rip_count() as f64 / sw.limits().max_rips as f64
                    + sw.utilization()
                    + rips_on_vip as f64 * 0.05;
                Some((vip, score))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
            .map(|(vip, _)| vip)
    }

    /// Set the weight of `vm`'s RIP.
    fn set_vm_weight(state: &mut PlatformState, vm: VmId, weight: f64) -> Result<(), StateError> {
        let rip = state
            .rip_of_vm(vm)
            .ok_or(StateError::Vm(vmm::VmError::UnknownVm(vm)))?;
        let rec = *state.rip(rip)?;
        let switch = state.vip(rec.vip)?.switch;
        state.switches[switch.0 as usize].set_rip_weight(rec.vip, rip, weight)?;
        Ok(())
    }

    /// §IV.F: apply pod-relative weights under `vip`, rescaled so the
    /// pod's total weight under that VIP is unchanged. `None` when the
    /// request would succeed and leave every weight bit as it is: nothing
    /// is written.
    fn adjust_pod_weights(
        state: &mut PlatformState,
        pod: PodId,
        vip: VipAddr,
        weights: &[(VmId, f64)],
        scratch: &mut PodWeightScratch,
    ) -> Option<Response> {
        let switch = match Self::pod_weight_writes(state, pod, vip, weights, scratch) {
            Ok(switch) => switch,
            Err(e) => return Some(Response::Failed(e.to_string())),
        };
        let writes = &scratch.writes;
        if writes
            .iter()
            .all(|&(_, new, old)| new.to_bits() == old.to_bits())
        {
            return None;
        }
        for &(rip, w, _) in writes {
            if let Err(e) = state.switches[switch.0 as usize].set_rip_weight(vip, rip, w) {
                return Some(Response::Failed(StateError::from(e).to_string()));
            }
        }
        Some(Response::Done)
    }

    /// The §IV.F arithmetic of `AdjustPodWeights { pod, vip, weights }`,
    /// shared by the drain's no-op check and its writes: fills
    /// `scratch.writes` with one `(rip, new weight, current weight)` per
    /// requested VM, in request order, and returns the VIP's switch.
    ///
    /// One walk over the VIP's switch entries records the pod's entries
    /// and sums their weights, in entry order, into the pod's current
    /// total. Each requested VM must then be one of those entries, found
    /// through its RIP ([`PlatformState::rip_of_vm`]); the VM → RIP index
    /// names a record of that same VM ([`PlatformState::assert_invariants`]),
    /// so this accepts exactly the pod's VMs under the VIP. Each new weight
    /// is `w.max(0.0) * scale`, `scale` being the pod total over the
    /// requested total. `writes` is empty when there is nothing to rescale
    /// (no positive request, or a zero pod total), and meaningless on
    /// `Err`.
    fn pod_weight_writes(
        state: &PlatformState,
        pod: PodId,
        vip: VipAddr,
        weights: &[(VmId, f64)],
        scratch: &mut PodWeightScratch,
    ) -> Result<SwitchId, StateError> {
        let PodWeightScratch { pod: own, writes } = scratch;
        own.clear();
        writes.clear();
        let switch = state.vip(vip)?.switch;
        let cfg = state.switches[switch.0 as usize].vip(vip)?;
        let mut pod_total = 0.0;
        for entry in &cfg.rips {
            let rec = state.rip(entry.rip)?;
            let srv = state.fleet.locate(rec.vm)?;
            if state.pod_of(srv) == pod {
                pod_total += entry.weight;
                own.push((entry.rip, entry.weight));
            }
        }
        own.sort_unstable_by_key(|&(rip, _)| rip);
        for &(vm, w) in weights {
            let (rip, current) = state
                .rip_of_vm(vm)
                .and_then(|rip| {
                    let at = own.binary_search_by_key(&rip, |&(r, _)| r).ok()?;
                    Some(own[at])
                })
                .ok_or(StateError::Vm(vmm::VmError::UnknownVm(vm)))?;
            writes.push((rip, w.max(0.0), current));
        }
        let requested_total: f64 = writes.iter().map(|&(_, w, _)| w).sum();
        if requested_total <= 0.0 || pod_total <= 0.0 {
            writes.clear(); // nothing meaningful to rescale
            return Ok(switch);
        }
        let scale = pod_total / requested_total;
        for (_, w, _) in writes.iter_mut() {
            *w *= scale;
        }
        Ok(switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use vmm::ServerId;

    fn state() -> PlatformState {
        let mut st = PlatformState::new(PlatformConfig::small_test());
        for rank in 0..st.config.num_apps {
            st.register_app(rank);
        }
        st
    }

    #[test]
    fn new_vip_lands_on_least_loaded_switch() {
        let mut st = state();
        let mut mgr = VipRipManager::new();
        // Preload switch 0 with a VIP so switch 1 is emptier.
        st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        mgr.submit(Priority::Normal, Request::NewVip { app: AppId(1) });
        let out = mgr.process_all(&mut st);
        assert_eq!(out.len(), 1);
        match out[0].1 {
            Response::VipAllocated(_, sw) => assert_eq!(sw, SwitchId(1)),
            ref r => panic!("unexpected {r:?}"),
        }
        st.assert_invariants();
    }

    #[test]
    fn new_rip_requires_app_vip() {
        let mut st = state();
        let mut mgr = VipRipManager::new();
        let vm = st
            .fleet
            .create_vm_running(ServerId(0), 0, st.config.vm_cpu_slice, st.config.vm_mem_mb)
            .unwrap();
        // No VIP for app 0 yet: must fail.
        mgr.submit(
            Priority::Normal,
            Request::NewRip {
                app: AppId(0),
                vm,
                weight: 1.0,
            },
        );
        let out = mgr.process_all(&mut st);
        assert!(matches!(out[0].1, Response::Failed(_)));
        assert_eq!(mgr.failed(), 1);
        // Allocate a VIP, retry: succeeds.
        st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        mgr.submit(
            Priority::Normal,
            Request::NewRip {
                app: AppId(0),
                vm,
                weight: 1.0,
            },
        );
        let out = mgr.process_all(&mut st);
        assert!(matches!(out[0].1, Response::RipBound(_, _)));
        st.assert_invariants();
    }

    /// A hand-made drain, then seeded rounds of mixed priorities and
    /// request kinds: each drain returns its requests in the stable sort
    /// of submission order by priority, and the counters account for
    /// every one.
    #[test]
    fn priority_order_then_fifo() {
        use rand::Rng;
        let mut st = state();
        let mut mgr = VipRipManager::new();
        mgr.submit(Priority::Low, Request::NewVip { app: AppId(0) });
        mgr.submit(Priority::Normal, Request::NewVip { app: AppId(1) });
        mgr.submit(Priority::High, Request::NewVip { app: AppId(2) });
        mgr.submit(Priority::High, Request::NewVip { app: AppId(3) });
        let out = mgr.process_all(&mut st);
        let order: Vec<AppId> = out
            .iter()
            .map(|(req, _)| match req {
                Request::NewVip { app } => *app,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![AppId(2), AppId(3), AppId(1), AppId(0)]);

        let mut rng = dcsim::rng::component_rng(5, "queue-order", 0);
        let priorities = [Priority::Low, Priority::Normal, Priority::High];
        let (mut processed, mut failed, mut next_app) = (mgr.processed(), mgr.failed(), 4);
        for round in 0..20u32 {
            let mut submitted = Vec::new();
            for i in 0..rng.gen_range(0..40u32) {
                // Every request is distinct, so the order is fully checked.
                let tag = round * 100 + i;
                let request = match rng.gen_range(0..5) {
                    0 if next_app < st.config.num_apps as u32 => {
                        next_app += 1;
                        Request::NewVip {
                            app: AppId(next_app - 1),
                        }
                    }
                    0 | 1 => Request::NewRip {
                        app: AppId(0),
                        vm: VmId(10_000 + tag),
                        weight: 1.0,
                    },
                    2 => Request::DeleteRip {
                        vm: VmId(10_000 + tag),
                    },
                    3 => Request::SetWeight {
                        vm: VmId(10_000 + tag),
                        weight: 2.0,
                    },
                    // Names a VM with no RIP, so it fails rather than
                    // being skipped as a no-op.
                    _ => Request::AdjustPodWeights {
                        pod: PodId(0),
                        vip: VipAddr(tag),
                        weights: vec![(VmId(10_000 + tag), 1.0)],
                    },
                };
                let priority = priorities[rng.gen_range(0..3usize)];
                mgr.submit(priority, request.clone());
                submitted.push((priority, request));
            }
            assert_eq!(mgr.pending(), submitted.len());
            assert_eq!((mgr.processed(), mgr.failed()), (processed, failed));
            submitted.sort_by_key(|&(priority, _)| priority);
            let out = mgr.process_all(&mut st);
            let order: Vec<&Request> = out.iter().map(|(req, _)| req).collect();
            let want: Vec<&Request> = submitted.iter().map(|(_, req)| req).collect();
            assert_eq!(order, want, "round {round}");
            processed += out.len() as u64;
            failed += out
                .iter()
                .filter(|(_, resp)| matches!(resp, Response::Failed(_)))
                .count() as u64;
            assert_eq!(mgr.pending(), 0);
            assert_eq!((mgr.processed(), mgr.failed()), (processed, failed));
        }
        assert!(processed > 300 && failed > 0 && failed < processed);
    }

    #[test]
    fn set_weight_via_manager() {
        let mut st = state();
        let mut mgr = VipRipManager::new();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let (vm, rip) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 1.0)
            .unwrap();
        mgr.submit(Priority::High, Request::SetWeight { vm, weight: 5.0 });
        let out = mgr.process_all(&mut st);
        assert_eq!(out[0].1, Response::Done);
        let w = st.switches[0]
            .vip(vip)
            .unwrap()
            .rips
            .iter()
            .find(|r| r.rip == rip)
            .unwrap()
            .weight;
        assert!((w - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pod_weight_adjustment_preserves_pod_total() {
        let mut st = state();
        let mut mgr = VipRipManager::new();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        // Two VMs in pod 0 (servers 0 and 2), one in pod 1 (server 1).
        let (vm_a, _) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 1.0)
            .unwrap();
        let (vm_b, _) = st
            .add_instance_running(AppId(0), ServerId(2), vip, 3.0)
            .unwrap();
        let (_vm_c, rip_c) = st
            .add_instance_running(AppId(0), ServerId(1), vip, 2.0)
            .unwrap();
        // Pod 0 total = 4.0. Request relative weights 1:1 → 2.0 each.
        mgr.submit(
            Priority::Normal,
            Request::AdjustPodWeights {
                pod: PodId(0),
                vip,
                weights: vec![(vm_a, 1.0), (vm_b, 1.0)],
            },
        );
        let out = mgr.process_all(&mut st);
        assert_eq!(out[0].1, Response::Done);
        let cfg = st.switches[0].vip(vip).unwrap();
        let total_pod0: f64 = cfg
            .rips
            .iter()
            .filter(|r| r.rip != rip_c)
            .map(|r| r.weight)
            .sum();
        assert!(
            (total_pod0 - 4.0).abs() < 1e-9,
            "pod total changed: {total_pod0}"
        );
        // The other pod keeps its weight.
        let w_c = cfg.rips.iter().find(|r| r.rip == rip_c).unwrap().weight;
        assert!((w_c - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pod_weight_adjustment_rejects_foreign_vm() {
        let mut st = state();
        let mut mgr = VipRipManager::new();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let (_vm_a, _) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 1.0)
            .unwrap();
        let (vm_pod1, _) = st
            .add_instance_running(AppId(0), ServerId(1), vip, 1.0)
            .unwrap();
        // vm_pod1 is in pod 1, not pod 0: request must fail.
        mgr.submit(
            Priority::Normal,
            Request::AdjustPodWeights {
                pod: PodId(0),
                vip,
                weights: vec![(vm_pod1, 1.0)],
            },
        );
        let out = mgr.process_all(&mut st);
        assert!(matches!(out[0].1, Response::Failed(_)));
    }

    #[test]
    fn delete_rip_removes_instance() {
        let mut st = state();
        let mut mgr = VipRipManager::new();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let (vm, _) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 1.0)
            .unwrap();
        mgr.submit(Priority::Low, Request::DeleteRip { vm });
        let out = mgr.process_all(&mut st);
        assert_eq!(out[0].1, Response::Done);
        assert_eq!(st.num_rips(), 0);
        st.assert_invariants();
    }

    #[test]
    fn rips_spread_across_app_vips() {
        let mut st = state();
        let mut mgr = VipRipManager::new();
        let _v0 = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let _v1 = st.allocate_vip(AppId(0), SwitchId(1)).unwrap();
        for i in 0..4 {
            let vm = st
                .fleet
                .create_vm_running(ServerId(i), 0, st.config.vm_cpu_slice, st.config.vm_mem_mb)
                .unwrap();
            mgr.submit(
                Priority::Normal,
                Request::NewRip {
                    app: AppId(0),
                    vm,
                    weight: 1.0,
                },
            );
        }
        mgr.process_all(&mut st);
        // Both switches should host 2 RIPs each (tie-broken by occupancy).
        assert_eq!(st.switches[0].rip_count(), 2);
        assert_eq!(st.switches[1].rip_count(), 2);
        st.assert_invariants();
    }

    impl VipRipManager {
        /// [`VipRipManager::process_all`] applying every request, with the
        /// full scan choosing every `NewVip`'s switch and the
        /// clone-and-scan applying every pod weight request. Each pair
        /// comes with whether it is a pod weight request that succeeded
        /// and changed no RIP weight bit ([`weight_writes`] did not move):
        /// a pair the drain skips.
        fn process_all_full_scan(
            &mut self,
            state: &mut PlatformState,
        ) -> Vec<(Request, Response, bool)> {
            let mut out = Vec::new();
            for queue in &mut self.queues {
                for queued in queue.drain(..) {
                    let request = match queued {
                        Queued::Request(request) => request,
                        Queued::PodWeights { pod, vip, weights } => Request::AdjustPodWeights {
                            pod,
                            vip,
                            weights: self.pod_weights[weights].to_vec(),
                        },
                    };
                    let (resp, no_op) = match request {
                        Request::NewVip { app } => match Self::pick_vip_switch(state) {
                            Some(sw) => match state.allocate_vip(app, sw) {
                                Ok(vip) => (Response::VipAllocated(vip, sw), false),
                                Err(e) => (Response::Failed(e.to_string()), false),
                            },
                            None => (
                                Response::Failed("no switch with free VIP capacity".into()),
                                false,
                            ),
                        },
                        Request::AdjustPodWeights {
                            pod,
                            vip,
                            ref weights,
                        } => {
                            let before = weight_writes(state);
                            match Self::adjust_pod_weights_scan(state, pod, vip, weights) {
                                Ok(()) => (Response::Done, weight_writes(state) == before),
                                Err(e) => (Response::Failed(e.to_string()), false),
                            }
                        }
                        ref req => {
                            let scratch = &mut PodWeightScratch::default();
                            let resp = Self::apply(state, req, &mut None, scratch);
                            (resp.expect("not a pod weight request"), false)
                        }
                    };
                    out.push((request, resp, no_op));
                }
            }
            self.pod_weights.clear();
            out
        }

        /// Reference for [`VipRipManager::pod_weight_writes`]: the
        /// three-pass body it replaced, kept verbatim. It walks the VIP's
        /// entries for the pod total, then finds each requested VM's RIP
        /// through its record, and leaves `(rip, new weight)` writes.
        fn pod_weight_writes_three_pass(
            state: &PlatformState,
            pod: PodId,
            vip: VipAddr,
            weights: &[(VmId, f64)],
            writes: &mut Vec<(RipAddr, f64)>,
        ) -> Result<SwitchId, StateError> {
            writes.clear();
            let switch = state.vip(vip)?.switch;
            // Current total pod weight under this VIP.
            let cfg = state.switches[switch.0 as usize].vip(vip)?;
            let mut pod_total = 0.0;
            for entry in &cfg.rips {
                let rec = state.rip(entry.rip)?;
                let srv = state.fleet.locate(rec.vm)?;
                if state.pod_of(srv) == pod {
                    pod_total += entry.weight;
                }
            }
            // Validate the request covers only the pod's VMs under the VIP.
            for &(vm, w) in weights {
                writes.push((Self::pod_rip(state, pod, vip, vm)?, w.max(0.0)));
            }
            let requested_total: f64 = writes.iter().map(|&(_, w)| w).sum();
            if requested_total <= 0.0 || pod_total <= 0.0 {
                writes.clear(); // nothing meaningful to rescale
                return Ok(switch);
            }
            let scale = pod_total / requested_total;
            for (_, w) in writes.iter_mut() {
                *w *= scale;
            }
            Ok(switch)
        }

        /// The RIP of `vm` if it is bound under `vip` and runs in `pod`.
        fn pod_rip(
            state: &PlatformState,
            pod: PodId,
            vip: VipAddr,
            vm: VmId,
        ) -> Result<RipAddr, StateError> {
            state
                .rip_of_vm(vm)
                .filter(|&rip| {
                    state.rip(rip).is_ok_and(|rec| rec.vip == vip)
                        && state
                            .fleet
                            .locate(vm)
                            .is_ok_and(|srv| state.pod_of(srv) == pod)
                })
                .ok_or(StateError::Vm(vmm::VmError::UnknownVm(vm)))
        }

        /// Reference for [`VipRipManager::adjust_pod_weights`]: clone the
        /// VIP's config and scan it for the pod's `(vm, rip)` pairs.
        pub(crate) fn adjust_pod_weights_scan(
            state: &mut PlatformState,
            pod: PodId,
            vip: VipAddr,
            weights: &[(VmId, f64)],
        ) -> Result<(), StateError> {
            let switch = state.vip(vip)?.switch;
            let cfg = state.switches[switch.0 as usize].vip(vip)?.clone();
            let mut pod_total = 0.0;
            let mut pod_rips = Vec::new();
            for entry in &cfg.rips {
                let rec = *state.rip(entry.rip)?;
                let srv = state.fleet.locate(rec.vm)?;
                if state.pod_of(srv) == pod {
                    pod_total += entry.weight;
                    pod_rips.push((rec.vm, entry.rip));
                }
            }
            for &(vm, _) in weights {
                if !pod_rips.iter().any(|&(v, _)| v == vm) {
                    return Err(StateError::Vm(vmm::VmError::UnknownVm(vm)));
                }
            }
            let requested_total: f64 = weights.iter().map(|&(_, w)| w.max(0.0)).sum();
            if requested_total <= 0.0 || pod_total <= 0.0 {
                return Ok(());
            }
            let scale = pod_total / requested_total;
            for &(vm, w) in weights {
                let rip = pod_rips
                    .iter()
                    .find(|&&(v, _)| v == vm)
                    .expect("validated")
                    .1;
                state.switches[switch.0 as usize].set_rip_weight(vip, rip, w.max(0.0) * scale)?;
            }
            Ok(())
        }
    }

    /// Every `(vip, rip, weight bits)` on every switch, in switch order.
    fn rip_weights(st: &PlatformState) -> Vec<(VipAddr, RipAddr, u64)> {
        st.switches
            .iter()
            .flat_map(|sw| sw.vips())
            .flat_map(|(vip, cfg)| {
                cfg.rips
                    .iter()
                    .map(move |e| (vip, e.rip, e.weight.to_bits()))
            })
            .collect()
    }

    /// The writes that changed a RIP weight's bits so far, over every
    /// switch: [`LbSwitch::set_rip_weight`] counts exactly those as
    /// reconfigurations, and the weight requests here reconfigure nothing
    /// else.
    fn weight_writes(st: &PlatformState) -> u64 {
        st.switches.iter().map(LbSwitch::reconfigurations).sum()
    }

    /// The pairs of a reference drain that [`VipRipManager::process_all`]
    /// returns: all but the no-op pod weight requests.
    fn without_no_ops(pairs: Vec<(Request, Response, bool)>) -> Vec<(Request, Response)> {
        let applied = pairs.into_iter().filter(|&(_, _, no_op)| !no_op);
        applied.map(|(req, resp, _)| (req, resp)).collect()
    }

    /// Seeded `AdjustPodWeights` sequences, interleaved with instance
    /// adds and removals, VIP transfers and server moves between pods,
    /// run on two identical states: one drains through the manager, the
    /// other applies the clone-and-scan reference. Every RIP weight bit
    /// must agree, and the manager must return the reference's response
    /// to every request but those whose reference application succeeded
    /// and changed no weight bit, not even in passing (a duplicated VM
    /// may be written twice). The requests mix the pod's own
    /// VMs with VMs of another pod, VMs under another VIP of the same
    /// app, unbound VMs and duplicates, and zero, negative and empty
    /// weight lists. Each request is also checked against the state it
    /// was generated on by the one-pass `pod_weight_writes` and the
    /// three-pass reference: the same result, the same weight bits.
    #[test]
    fn adjust_pod_weights_matches_the_clone_and_scan() {
        use rand::Rng;
        // Requests by outcome: accepted with a positive weight, accepted
        // with none, failed.
        let mut outcomes = [0usize; 3];
        // Accepted requests: changed no weight bit, changed one.
        let mut verdicts = [0usize; 2];
        let mut scratch = PodWeightScratch::default();
        // Foreign VMs sent: other pod, other VIP of the app, unbound.
        let mut foreign = [0usize; 3];
        for seed in 1..=12u64 {
            let mut cfg = PlatformConfig::small_test();
            cfg.num_switches = 3;
            let build = || {
                let mut st = PlatformState::new(cfg);
                for rank in 0..cfg.num_apps {
                    let app = st.register_app(rank);
                    for k in 0..3 {
                        st.allocate_vip(app, SwitchId(k)).unwrap();
                    }
                }
                st
            };
            let (mut fast, mut reference) = (build(), build());
            let mut mgr = VipRipManager::new();
            let mut rng = dcsim::rng::component_rng(seed, "adjust-pod-weights", 0);
            let (mut bound, mut unbound): (Vec<VmId>, Vec<VmId>) = (Vec::new(), Vec::new());
            let levels = [0.0, -1.0, 0.25, 1.0, 2.5];
            for step in 0..120 {
                let app = AppId(rng.gen_range(0..cfg.num_apps as u32));
                let vips = fast.app(app).unwrap().vips.clone();
                let server = ServerId(rng.gen_range(0..cfg.num_servers as u32));
                match rng.gen_range(0..8) {
                    0..=2 => {
                        let vip = vips[rng.gen_range(0..vips.len())];
                        let w = levels[rng.gen_range(2..5usize)];
                        let got = fast.add_instance_running(app, server, vip, w);
                        assert_eq!(got, reference.add_instance_running(app, server, vip, w));
                        if let Ok((vm, _)) = got {
                            bound.push(vm);
                        }
                    }
                    3 => {
                        let (slice, mem) = (cfg.vm_cpu_slice, cfg.vm_mem_mb);
                        let got = fast.fleet.create_vm_running(server, app.0, slice, mem);
                        let want = reference.fleet.create_vm_running(server, app.0, slice, mem);
                        assert_eq!(got, want);
                        unbound.extend(got.ok());
                    }
                    4 if !bound.is_empty() => {
                        let vm = bound.swap_remove(rng.gen_range(0..bound.len()));
                        assert_eq!(fast.remove_instance(vm), reference.remove_instance(vm));
                    }
                    5 => {
                        let vip = vips[rng.gen_range(0..vips.len())];
                        let to = SwitchId(rng.gen_range(0..cfg.num_switches as u32));
                        assert_eq!(fast.transfer_vip(vip, to), reference.transfer_vip(vip, to));
                    }
                    6 => {
                        let pod = PodId(rng.gen_range(0..fast.num_pods() as u32));
                        fast.move_server_to_pod(server, pod);
                        reference.move_server_to_pod(server, pod);
                    }
                    _ => {}
                }
                let mut want = Vec::new();
                for _ in 0..rng.gen_range(1..5) {
                    // Mostly a bound VM's (VIP, pod), so the pod has RIPs
                    // to rescale; otherwise any VIP and pod.
                    let (vip, pod) = if !bound.is_empty() && rng.gen_range(0..4) > 0 {
                        let vm = bound[rng.gen_range(0..bound.len())];
                        let rec = fast.rip(fast.rip_of_vm(vm).unwrap()).unwrap();
                        (rec.vip, fast.pod_of(fast.fleet.locate(vm).unwrap()))
                    } else {
                        let vips = &fast
                            .app(AppId(rng.gen_range(0..cfg.num_apps as u32)))
                            .unwrap()
                            .vips;
                        let pod = PodId(rng.gen_range(0..fast.num_pods() as u32));
                        (vips[rng.gen_range(0..vips.len())], pod)
                    };
                    let app = fast.vip(vip).unwrap().app;
                    // The app's bound VMs, split by (under `vip`, in `pod`).
                    let (mut own, mut other_pod, mut other_vip) =
                        (Vec::new(), Vec::new(), Vec::new());
                    for &vm in &bound {
                        let rec = *fast.rip(fast.rip_of_vm(vm).unwrap()).unwrap();
                        if fast.vip(rec.vip).unwrap().app != app {
                            continue;
                        }
                        let in_pod = fast.pod_of(fast.fleet.locate(vm).unwrap()) == pod;
                        match (rec.vip == vip, in_pod) {
                            (true, true) => own.push(vm),
                            (true, false) => other_pod.push(vm),
                            (false, _) => other_vip.push(vm),
                        }
                    }
                    let mut weights: Vec<(VmId, f64)> = Vec::new();
                    if rng.gen_range(0..8) > 0 {
                        let w = |rng: &mut rand::rngs::SmallRng| match rng.gen_range(0..7) {
                            0..=4 => levels[rng.gen_range(0..5usize)],
                            _ => rng.gen_range(0.0..4.0),
                        };
                        for &vm in &own {
                            if rng.gen_range(0..4) > 0 {
                                weights.push((vm, w(&mut rng)));
                            }
                        }
                        if !weights.is_empty() && rng.gen_range(0..4) == 0 {
                            let dup = weights[rng.gen_range(0..weights.len())].0;
                            weights.push((dup, w(&mut rng)));
                        }
                        if rng.gen_range(0..3) == 0 {
                            let kind = rng.gen_range(0..3usize);
                            let pool = [&other_pod, &other_vip, &unbound][kind];
                            if !pool.is_empty() {
                                foreign[kind] += 1;
                                let at = rng.gen_range(0..=weights.len());
                                weights
                                    .insert(at, (pool[rng.gen_range(0..pool.len())], w(&mut rng)));
                            }
                        }
                    }
                    let one =
                        VipRipManager::pod_weight_writes(&fast, pod, vip, &weights, &mut scratch)
                            .map(|sw| {
                                let ws = scratch.writes.iter().map(|&(r, w, _)| (r, w.to_bits()));
                                (sw, ws.collect::<Vec<_>>())
                            });
                    let mut writes = Vec::new();
                    let three = VipRipManager::pod_weight_writes_three_pass(
                        &fast,
                        pod,
                        vip,
                        &weights,
                        &mut writes,
                    )
                    .map(|sw| {
                        let ws = writes.iter().map(|&(r, w)| (r, w.to_bits()));
                        (sw, ws.collect::<Vec<_>>())
                    });
                    assert_eq!(one, three, "seed {seed} step {step}");
                    let before = weight_writes(&reference);
                    let result =
                        VipRipManager::adjust_pod_weights_scan(&mut reference, pod, vip, &weights);
                    outcomes[match &result {
                        Ok(()) if weights.iter().any(|&(_, w)| w > 0.0) => 0,
                        Ok(()) => 1,
                        Err(_) => 2,
                    }] += 1;
                    match result {
                        // The drain skips it: no response.
                        Ok(()) if weight_writes(&reference) == before => verdicts[0] += 1,
                        Ok(()) => {
                            verdicts[1] += 1;
                            want.push(Response::Done);
                        }
                        Err(e) => want.push(Response::Failed(e.to_string())),
                    }
                    mgr.submit(
                        Priority::Normal,
                        Request::AdjustPodWeights { pod, vip, weights },
                    );
                }
                let got: Vec<Response> = mgr
                    .process_all(&mut fast)
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect();
                assert_eq!(got, want, "seed {seed} step {step}");
                assert_eq!(
                    rip_weights(&fast),
                    rip_weights(&reference),
                    "seed {seed} step {step}"
                );
            }
            fast.assert_invariants();
        }
        assert!(
            outcomes.iter().all(|&n| n > 300)
                && foreign.iter().all(|&n| n > 40)
                && verdicts.iter().all(|&n| n > 300),
            "outcomes {outcomes:?}, foreign {foreign:?}, verdicts {verdicts:?}"
        );
    }

    /// Whether applying `AdjustPodWeights { pod, vip, weights }` to `st`
    /// through the clone-and-scan reference succeeds and leaves every RIP
    /// weight bit as it is. `st`'s weights are restored afterwards.
    fn no_op_by_reference(
        st: &mut PlatformState,
        pod: PodId,
        vip: VipAddr,
        weights: &[(VmId, f64)],
    ) -> bool {
        let (before, writes) = (rip_weights(st), weight_writes(st));
        let ok = VipRipManager::adjust_pod_weights_scan(st, pod, vip, weights).is_ok();
        let no_op = weight_writes(st) == writes;
        if !no_op {
            let sw = st.vip(vip).unwrap().switch.0 as usize;
            for (_, rip, bits) in before.into_iter().filter(|&(v, ..)| v == vip) {
                let w = f64::from_bits(bits);
                st.switches[sw].set_rip_weight(vip, rip, w).unwrap();
            }
        }
        ok && no_op
    }

    /// Seeded drains that interleave High `SetWeight`s and `DeleteRip`s,
    /// pod weight requests, `NewRip`s queued before and after them and Low
    /// `DeleteRip`s, with server moves between planning and some drains
    /// and pod requests that name a VM outside the pod's entries. Two
    /// identical states: one drains through the manager, the pod requests
    /// submitted through its weight arena or as plain requests; the other
    /// applies every request through the reference drain. The manager's
    /// pairs must be the reference's without exactly the pod requests
    /// whose reference application changed no weight bit, every RIP
    /// weight bit must agree after every drain, and the arena must be
    /// empty. Many pod requests are no-ops at the drain's start but not at
    /// their turn, or the other way round, so a drain that decided its
    /// skips before applying anything would fail.
    #[test]
    fn drain_skips_exactly_the_no_op_pod_requests() {
        use rand::Rng;
        // Pod requests: skipped, applied, failed; and those whose no-op
        // verdict at their turn differs from the one at the drain's start.
        let (mut skipped, mut applied, mut failed, mut stale) = (0, 0, 0, 0);
        for seed in 1..=10u64 {
            let mut cfg = PlatformConfig::small_test();
            cfg.num_apps = 4;
            cfg.num_switches = 3;
            let build = || {
                let mut st = PlatformState::new(cfg);
                for rank in 0..cfg.num_apps {
                    let app = st.register_app(rank);
                    for k in 0..2 {
                        let vip = st.allocate_vip(app, SwitchId(k)).unwrap();
                        for i in 0..5 {
                            let server = ServerId((rank as u32 * 7 + k * 5 + i * 3) % 16);
                            let w = [0.5, 1.0, 1.25, 3.0][(i as usize + rank) % 4];
                            st.add_instance_running(app, server, vip, w).unwrap();
                        }
                    }
                }
                st
            };
            let (mut fast, mut reference) = (build(), build());
            let (mut mgr, mut ref_mgr) = (VipRipManager::new(), VipRipManager::new());
            let mut rng = dcsim::rng::component_rng(seed, "no-op-pod-requests", 0);
            let mut bound: Vec<VmId> = fast
                .vips()
                .flat_map(|(vip, _)| vm_list(&fast, vip))
                .collect();
            for drain in 0..60 {
                // Plan: pod weight requests against the state as it is now.
                let mut planned = Vec::new();
                for _ in 0..rng.gen_range(1..6) {
                    let vm = bound[rng.gen_range(0..bound.len())];
                    let vip = fast.rip(fast.rip_of_vm(vm).unwrap()).unwrap().vip;
                    let pod = fast.pod_of(fast.fleet.locate(vm).unwrap());
                    let sw = fast.vip(vip).unwrap().switch.0 as usize;
                    // The pod's RIPs under the VIP with their weights, in
                    // switch-entry order.
                    let mut own: Vec<(VmId, f64)> = fast.switches[sw]
                        .vip(vip)
                        .unwrap()
                        .rips
                        .iter()
                        .map(|e| (fast.rip(e.rip).unwrap().vm, e.weight))
                        .filter(|&(vm, _)| fast.pod_of(fast.fleet.locate(vm).unwrap()) == pod)
                        .collect();
                    match rng.gen_range(0..4) {
                        // As they are, or doubled: a no-op.
                        0 => {}
                        1 => own.iter_mut().for_each(|(_, w)| *w *= 2.0),
                        // Reversed: the requested total may round apart.
                        2 => own.reverse(),
                        _ => {
                            for (_, w) in &mut own {
                                *w = [0.0, 0.5, 1.0, 2.0][rng.gen_range(0..4usize)];
                            }
                        }
                    }
                    if rng.gen_range(0..10) == 0 {
                        // Any bound VM: often another pod's or VIP's.
                        own.push((bound[rng.gen_range(0..bound.len())], 1.0));
                    }
                    planned.push((pod, vip, own));
                }
                if rng.gen_range(0..8) == 0 {
                    let server = ServerId(rng.gen_range(0..16));
                    let to = PodId(1 - fast.pod_of(server).0);
                    fast.move_server_to_pod(server, to);
                    reference.move_server_to_pod(server, to);
                }
                // The manager gets pod requests through its arena or as
                // plain requests; the reference gets every request as it is.
                let mut submit = |arena: bool, priority: Priority, request: Request| {
                    match &request {
                        Request::AdjustPodWeights { pod, vip, weights } if arena => {
                            mgr.submit_pod_weights(*pod, *vip, weights)
                        }
                        _ => mgr.submit(priority, request.clone()),
                    }
                    ref_mgr.submit(priority, request);
                };
                // High: reweights, often of a planned VIP's RIPs, and a
                // rare removal.
                for _ in 0..rng.gen_range(0..4) {
                    let vm = if rng.gen_range(0..2) == 0 {
                        let (_, _, ws) = &planned[rng.gen_range(0..planned.len())];
                        ws[rng.gen_range(0..ws.len())].0
                    } else {
                        bound[rng.gen_range(0..bound.len())]
                    };
                    let weight = [0.0, 0.5, 1.0, 2.0, 3.0][rng.gen_range(0..5usize)];
                    submit(false, Priority::High, Request::SetWeight { vm, weight });
                }
                if rng.gen_range(0..6) == 0 && bound.len() > 20 {
                    let vm = bound.swap_remove(rng.gen_range(0..bound.len()));
                    submit(false, Priority::High, Request::DeleteRip { vm });
                }
                // Normal: a new RIP ahead of the pod requests, sometimes.
                let mut new_rip = |rng: &mut rand::rngs::SmallRng, bound: &mut Vec<VmId>| {
                    let app = AppId(rng.gen_range(0..cfg.num_apps as u32));
                    let server = ServerId(rng.gen_range(0..16));
                    let (slice, mem) = (cfg.vm_cpu_slice, cfg.vm_mem_mb);
                    let vm = fast.fleet.create_vm_running(server, app.0, slice, mem);
                    assert_eq!(
                        vm,
                        reference.fleet.create_vm_running(server, app.0, slice, mem)
                    );
                    let vm = vm.ok()?;
                    bound.push(vm);
                    Some(Request::NewRip {
                        app,
                        vm,
                        weight: 1.0,
                    })
                };
                let mut normal = Vec::new();
                if rng.gen_range(0..3) == 0 {
                    normal.extend(new_rip(&mut rng, &mut bound));
                }
                for (i, (pod, vip, weights)) in planned.iter().cloned().enumerate() {
                    let request = Request::AdjustPodWeights { pod, vip, weights };
                    submit(i % 3 > 0, Priority::Normal, request);
                }
                for request in normal {
                    submit(false, Priority::Normal, request);
                }
                if rng.gen_range(0..3) == 0 {
                    if let Some(request) = new_rip(&mut rng, &mut bound) {
                        submit(false, Priority::Normal, request);
                    }
                }
                if rng.gen_range(0..3) == 0 && bound.len() > 20 {
                    let vm = bound.swap_remove(rng.gen_range(0..bound.len()));
                    submit(false, Priority::Low, Request::DeleteRip { vm });
                }
                // Each pod request's verdict against the state the drain
                // starts from.
                let at_start: Vec<bool> = planned
                    .iter()
                    .map(|(pod, vip, ws)| no_op_by_reference(&mut reference, *pod, *vip, ws))
                    .collect();
                let before = (mgr.processed(), mgr.unchanged());
                let got = mgr.process_all(&mut fast);
                assert!(mgr.pod_weights.is_empty(), "seed {seed} drain {drain}");
                let want = ref_mgr.process_all_full_scan(&mut reference);
                let at_turn: Vec<bool> = want
                    .iter()
                    .filter(|(req, ..)| matches!(req, Request::AdjustPodWeights { .. }))
                    .map(|&(_, _, no_op)| no_op)
                    .collect();
                assert_eq!(at_turn.len(), at_start.len());
                stale += at_turn
                    .iter()
                    .zip(&at_start)
                    .filter(|(a, b)| a != b)
                    .count();
                for (req, resp, no_op) in &want {
                    if let Request::AdjustPodWeights { .. } = req {
                        match (no_op, resp) {
                            (true, _) => skipped += 1,
                            (false, Response::Failed(_)) => failed += 1,
                            (false, _) => applied += 1,
                        }
                    }
                }
                let no_ops = at_turn.iter().filter(|&&no_op| no_op).count() as u64;
                assert_eq!(mgr.unchanged() - before.1, no_ops);
                assert_eq!(mgr.processed() - before.0, got.len() as u64);
                assert_eq!(got, without_no_ops(want), "seed {seed} drain {drain}");
                assert_eq!(
                    rip_weights(&fast),
                    rip_weights(&reference),
                    "seed {seed} drain {drain}"
                );
                // A NewRip may have failed: keep only bound VMs.
                bound.retain(|&vm| fast.rip_of_vm(vm).is_some());
            }
            fast.assert_invariants();
        }
        assert!(
            skipped > 500 && applied > 300 && failed > 100 && stale > 100,
            "skipped {skipped}, applied {applied}, failed {failed}, stale {stale}"
        );
    }

    /// The VMs whose RIPs are listed under `vip`.
    fn vm_list(st: &PlatformState, vip: VipAddr) -> Vec<VmId> {
        let sw = st.vip(vip).unwrap().switch.0 as usize;
        let cfg = st.switches[sw].vip(vip).unwrap();
        cfg.rips.iter().map(|e| st.rip(e.rip).unwrap().vm).collect()
    }

    /// Seeded drains of `NewVip` mixed with `NewRip`/`DeleteRip`, with
    /// offered loads, switch failures and VIP transfers between drains,
    /// run on two identical states: the drain-local index must choose
    /// the full scan's switch for every `NewVip`, so both drains return
    /// the same responses.
    #[test]
    fn vip_switch_index_matches_the_full_scan() {
        use rand::Rng;
        let mut allocated = 0;
        let mut full = 0;
        for seed in 1..=8u64 {
            let mut cfg = PlatformConfig::small_test();
            cfg.num_switches = 6;
            cfg.switch_limits.max_vips = 5;
            let build = || {
                let mut st = PlatformState::new(cfg);
                for rank in 0..st.config.num_apps {
                    st.register_app(rank);
                }
                st
            };
            let (mut fast, mut reference) = (build(), build());
            let (mut fast_mgr, mut ref_mgr) = (VipRipManager::new(), VipRipManager::new());
            let mut rng = dcsim::rng::component_rng(seed, "vip-switch-index", 0);
            let mut vms = Vec::new();
            for drain in 0..30u64 {
                let healthy: Vec<SwitchId> = (0..cfg.num_switches as u32)
                    .map(SwitchId)
                    .filter(|&s| fast.switch_healthy(s))
                    .collect();
                match rng.gen_range(0..5) {
                    0 | 1 => {
                        // Zero loads tie scores, so the id tie-break shows.
                        let levels = [0.0, 0.0, 2e8, 1e9, 3e9];
                        let load = |vip: VipAddr| {
                            let mut h = seed ^ (drain << 32) ^ u64::from(vip.0);
                            levels[(dcsim::rng::splitmix64(&mut h) % 5) as usize]
                        };
                        for st in [&mut fast, &mut reference] {
                            for sw in &mut st.switches {
                                sw.set_offered_loads(load);
                            }
                        }
                    }
                    2 if healthy.len() > 2 => {
                        let id = healthy[rng.gen_range(0..healthy.len())];
                        assert_eq!(
                            fast.fail_switch(id, dcsim::SimTime::ZERO),
                            reference.fail_switch(id, dcsim::SimTime::ZERO)
                        );
                    }
                    3 => {
                        let vips: Vec<VipAddr> = fast.vips().map(|(v, _)| v).collect();
                        if !vips.is_empty() {
                            let vip = vips[rng.gen_range(0..vips.len())];
                            let to = healthy[rng.gen_range(0..healthy.len())];
                            assert_eq!(
                                fast.transfer_vip(vip, to).is_ok(),
                                reference.transfer_vip(vip, to).is_ok()
                            );
                        }
                    }
                    _ => {}
                }
                for _ in 0..rng.gen_range(1..10) {
                    let app = AppId(rng.gen_range(0..cfg.num_apps as u32));
                    let req = match rng.gen_range(0..4) {
                        0 | 1 => Request::NewVip { app },
                        2 => {
                            let server = ServerId(rng.gen_range(0..cfg.num_servers as u32));
                            let create = |st: &mut PlatformState| {
                                st.fleet
                                    .create_vm_running(
                                        server,
                                        app.0,
                                        cfg.vm_cpu_slice,
                                        cfg.vm_mem_mb,
                                    )
                                    .ok()
                            };
                            let vm = create(&mut fast);
                            assert_eq!(vm, create(&mut reference));
                            let Some(vm) = vm else { continue };
                            vms.push(vm);
                            Request::NewRip {
                                app,
                                vm,
                                weight: 1.0,
                            }
                        }
                        _ if !vms.is_empty() => Request::DeleteRip {
                            vm: vms.swap_remove(rng.gen_range(0..vms.len())),
                        },
                        _ => continue,
                    };
                    fast_mgr.submit(Priority::Normal, req.clone());
                    ref_mgr.submit(Priority::Normal, req);
                }
                let got = fast_mgr.process_all(&mut fast);
                let want = without_no_ops(ref_mgr.process_all_full_scan(&mut reference));
                assert_eq!(got, want, "seed {seed} drain {drain}");
                for (req, resp) in &got {
                    match (req, resp) {
                        (Request::NewVip { .. }, Response::VipAllocated(..)) => allocated += 1,
                        (Request::NewVip { .. }, Response::Failed(_)) => full += 1,
                        _ => {}
                    }
                }
            }
            fast.assert_invariants();
        }
        // The sequences must reach both outcomes to test anything.
        assert!(
            allocated > 100 && full > 0,
            "{allocated} allocated, {full} full"
        );
    }
}
