//! # obs — the deterministic control-plane flight recorder
//!
//! Every control-plane decision in the simulator (global-manager knob
//! actuations, pod-manager plans, proactive elasticity requests, the
//! serialized VIP/RIP queue's apply results, and a per-epoch health
//! roll-up) emits a typed [`Event`] into a bounded ring buffer owned by
//! the [`Recorder`], optionally teeing each event as one JSONL line into
//! a file sink (`expt --events <path>`).
//!
//! Determinism is load-bearing: events are stamped with the *simulation*
//! clock ([`dcsim::SimTime`], microseconds) and a per-run sequence
//! number, never wall-clock time, so two seeded runs produce
//! byte-identical logs — the event log is itself part of the repo's
//! determinism gate (CI byte-compares E17 logs across reruns).
//!
//! On top of the log sit:
//! * [`footprint`] — the static read/write declarations for every
//!   [`footprint::GlobalAction`] (moved here from `core` so both the
//!   runtime recorder and the `analyze` conflict checker share one
//!   source of truth);
//! * [`explain`] — causal-chain reconstruction for a VIP/app/epoch and
//!   the runtime-vs-declared footprint cross-check, exposed as
//!   `cargo run -p obs -- explain`;
//! * [`phases`] — the declared effect sets of every epoch phase,
//!   consumed by the `analyze` phase pass and the generated phase
//!   effects matrix in DESIGN.md;
//! * [`json`] — the hand-rolled deterministic JSON writer/parser (the
//!   workspace has no serialization framework).
//!
//! See DESIGN.md §"Observability" for the schema and sizing rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
pub mod footprint;
pub mod json;
pub mod metrics;
pub mod phases;
pub mod profile;
pub mod report;

use footprint::GlobalAction;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;

/// Default ring capacity: 8192 events ≈ a full 180-epoch E17 run with
/// headroom (observed ≈20–40 events/epoch), small enough (~1 MiB) to
/// keep resident in every experiment without a sink attached.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Which controller produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Actor {
    /// The global manager (`GlobalManager::epoch_knobs`).
    Global,
    /// The proactive elasticity plane (arbiter-granted knob requests).
    Elastic,
    /// A pod manager, by pod id.
    Pod(u32),
    /// The serialized VIP/RIP queue (apply-time results).
    Queue,
    /// The platform epoch loop itself (health roll-ups).
    Platform,
}

impl Actor {
    fn write_to(self, out: &mut String) {
        match self {
            Actor::Global => out.push_str("global"),
            Actor::Elastic => out.push_str("elastic"),
            Actor::Pod(p) => {
                let _ = write!(out, "pod:{p}");
            }
            Actor::Queue => out.push_str("queue"),
            Actor::Platform => out.push_str("platform"),
        }
    }

    /// Inverse of the serialized form (`"global"`, `"pod:3"`, …).
    pub fn parse(s: &str) -> Result<Actor, String> {
        match s {
            "global" => Ok(Actor::Global),
            "elastic" => Ok(Actor::Elastic),
            "queue" => Ok(Actor::Queue),
            "platform" => Ok(Actor::Platform),
            other => match other.strip_prefix("pod:") {
                Some(id) => id
                    .parse::<u32>()
                    .map(Actor::Pod)
                    .map_err(|e| format!("bad pod actor {other:?}: {e}")),
                None => Err(format!("unknown actor {other:?}")),
            },
        }
    }
}

/// The typed kind of a recorded event.
///
/// `Global(_)` wraps the eight footprint-declared global-manager
/// actions; the rest cover the other control planes (pod managers, the
/// proactive elasticity path, queue applies) and the per-epoch health
/// record. Only `Global(_)` events are subject to the footprint
/// cross-check — the other planes have no static declaration (yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActionKind {
    /// A footprint-declared global-manager action.
    Global(GlobalAction),
    /// One pod manager's decision round (summary of its
    /// `megadc::pod::PodPlan`).
    PodPlan,
    /// A pod plan starting one new instance on a server.
    InstanceStart,
    /// A pod plan (or proactive grant) resizing an instance's CPU slice.
    SliceAdjust,
    /// Proactive elasticity: granted `Reweight` knob request.
    ProactiveReweight,
    /// Proactive elasticity: granted `Deploy` knob request.
    ProactiveDeploy,
    /// Proactive elasticity: granted `Retire` knob request.
    ProactiveRetire,
    /// The serialized VIP/RIP queue applying one request.
    QueueApply,
    /// The per-epoch health roll-up (event counts + load summary).
    EpochHealth,
    /// An injected component failure (chaos harness: switch, server or
    /// pod loss); the failed component ids and a `note` qualifier record
    /// what was taken down.
    FaultInject,
    /// An injected access-link capacity change (chaos harness:
    /// degradation and its recovery).
    LinkDegrade,
}

/// The non-`Global` kinds, for parsers and exhaustiveness tests.
pub const STRUCTURAL_KINDS: [ActionKind; 10] = [
    ActionKind::PodPlan,
    ActionKind::InstanceStart,
    ActionKind::SliceAdjust,
    ActionKind::ProactiveReweight,
    ActionKind::ProactiveDeploy,
    ActionKind::ProactiveRetire,
    ActionKind::QueueApply,
    ActionKind::EpochHealth,
    ActionKind::FaultInject,
    ActionKind::LinkDegrade,
];

/// The fault-injection kinds: like [`footprint::ALL_ACTIONS`], every one
/// of these must have an emit site in `crates/core/src` (the `analyze`
/// emit-coverage rule) so injected faults always reach the audit trail.
pub const FAULT_KINDS: [ActionKind; 2] = [ActionKind::FaultInject, ActionKind::LinkDegrade];

/// The scaling direction of an action kind, for flip-flop detection:
/// `+1` for scale-out (instance starts, deployments), `-1` for scale-in
/// (retires), `None` for direction-neutral kinds. A per-app reversal —
/// a `-1` following a `+1` or vice versa — is one flip-flop; the
/// [`Recorder`] counts them cumulatively and E17's oscillation window
/// shares this classification.
pub fn scale_direction(kind: ActionKind) -> Option<i8> {
    match kind {
        ActionKind::InstanceStart
        | ActionKind::ProactiveDeploy
        | ActionKind::Global(GlobalAction::Deployment) => Some(1),
        ActionKind::ProactiveRetire | ActionKind::Global(GlobalAction::QueueRetire) => Some(-1),
        _ => None,
    }
}

/// How many event kinds there are: the footprint's global actions, then
/// the structural kinds.
const KIND_COUNT: usize = footprint::ALL_ACTIONS.len() + STRUCTURAL_KINDS.len();

impl ActionKind {
    /// The kind's slot in the recorder's count tables: the global
    /// actions in [`footprint::ALL_ACTIONS`] order, then
    /// [`STRUCTURAL_KINDS`] in order.
    fn index(self) -> usize {
        const G: usize = footprint::ALL_ACTIONS.len();
        match self {
            ActionKind::Global(a) => a as usize,
            ActionKind::PodPlan => G,
            ActionKind::InstanceStart => G + 1,
            ActionKind::SliceAdjust => G + 2,
            ActionKind::ProactiveReweight => G + 3,
            ActionKind::ProactiveDeploy => G + 4,
            ActionKind::ProactiveRetire => G + 5,
            ActionKind::QueueApply => G + 6,
            ActionKind::EpochHealth => G + 7,
            ActionKind::FaultInject => G + 8,
            ActionKind::LinkDegrade => G + 9,
        }
    }

    /// The kind in slot `i` of the count tables (inverse of `index`).
    fn from_index(i: usize) -> ActionKind {
        match footprint::ALL_ACTIONS.get(i) {
            Some(&a) => ActionKind::Global(a),
            None => STRUCTURAL_KINDS[i - footprint::ALL_ACTIONS.len()],
        }
    }

    /// Stable serialized form (the `kind` field of an event line).
    pub fn key(self) -> &'static str {
        match self {
            ActionKind::Global(a) => a.name(),
            ActionKind::PodPlan => "PodPlan",
            ActionKind::InstanceStart => "InstanceStart",
            ActionKind::SliceAdjust => "SliceAdjust",
            ActionKind::ProactiveReweight => "ProactiveReweight",
            ActionKind::ProactiveDeploy => "ProactiveDeploy",
            ActionKind::ProactiveRetire => "ProactiveRetire",
            ActionKind::QueueApply => "QueueApply",
            ActionKind::EpochHealth => "EpochHealth",
            ActionKind::FaultInject => "FaultInject",
            ActionKind::LinkDegrade => "LinkDegrade",
        }
    }

    /// Inverse of [`ActionKind::key`].
    pub fn parse(s: &str) -> Result<ActionKind, String> {
        if let Some(a) = GlobalAction::parse(s) {
            return Ok(ActionKind::Global(a));
        }
        STRUCTURAL_KINDS
            .into_iter()
            .find(|k| k.key() == s)
            .ok_or_else(|| format!("unknown event kind {s:?}"))
    }
}

/// One recorded control-plane event.
///
/// Identity fields (`app`…`server`) are the raw `u32` payloads of the
/// workspace id newtypes (`AppId`, `VipAddr`, …); `obs` deliberately
/// depends only on `dcsim` so every other crate can depend on it.
/// `inputs` are the decision inputs that justified the action and
/// `delta` the resulting state change as `(key, before, after)`; keys
/// are `"<resource-or-ambient>.<detail>"` and, for
/// [`ActionKind::Global`] events, are cross-checked against the
/// declared [`footprint::Footprint`] by [`explain::footprint_violations`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Per-run monotone sequence number (total order of the log).
    pub seq: u64,
    /// Platform epoch counter when the event fired.
    pub epoch: u64,
    /// Simulation clock, microseconds ([`dcsim::SimTime::as_micros`]).
    pub t_us: u64,
    /// Which controller acted.
    pub actor: Actor,
    /// What it did.
    pub kind: ActionKind,
    /// Application id, if the action targets one.
    pub app: Option<u32>,
    /// VIP address, if the action targets one.
    pub vip: Option<u32>,
    /// Pod id, if the action targets one.
    pub pod: Option<u32>,
    /// VM id, if the action targets one.
    pub vm: Option<u32>,
    /// Access-link / router id, if the action targets one.
    pub link: Option<u32>,
    /// LB-switch id, if the action targets one.
    pub switch: Option<u32>,
    /// Server id, if the action targets one.
    pub server: Option<u32>,
    /// Free-form qualifier (phase of a multi-step action, abort reason).
    /// Recorded notes are `&'static str`s, so recording allocates no
    /// note; only a parsed event owns its note.
    pub note: Cow<'static, str>,
    /// Decision inputs: `(key, value)` in emission order. Keys are
    /// borrowed `&'static str`s when recorded, like `note`; only a parsed
    /// event owns its keys.
    pub inputs: Vec<(Cow<'static, str>, f64)>,
    /// State deltas: `(key, before, after)` in emission order, keyed the
    /// same way as `inputs`.
    pub delta: Vec<(Cow<'static, str>, f64, f64)>,
}

impl Event {
    fn new(actor: Actor, kind: ActionKind) -> Event {
        Event {
            seq: 0,
            epoch: 0,
            t_us: 0,
            actor,
            kind,
            app: None,
            vip: None,
            pod: None,
            vm: None,
            link: None,
            switch: None,
            server: None,
            note: Cow::Borrowed(""),
            inputs: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Serialize as one JSONL line (no trailing newline). Key order is
    /// fixed; optional ids are omitted when absent — the byte output is
    /// a pure function of the event, which is what the determinism gate
    /// byte-compares.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"seq\":{},\"epoch\":{},\"t_us\":{},\"actor\":\"",
            self.seq, self.epoch, self.t_us
        );
        self.actor.write_to(&mut out);
        out.push_str("\",\"kind\":");
        json::write_str(self.kind.key(), &mut out);
        for (name, id) in [
            ("app", self.app),
            ("vip", self.vip),
            ("pod", self.pod),
            ("vm", self.vm),
            ("link", self.link),
            ("switch", self.switch),
            ("server", self.server),
        ] {
            if let Some(id) = id {
                let _ = write!(out, ",\"{name}\":{id}");
            }
        }
        if !self.note.is_empty() {
            out.push_str(",\"note\":");
            json::write_str(&self.note, &mut out);
        }
        if !self.inputs.is_empty() {
            out.push_str(",\"inputs\":{");
            for (i, (k, v)) in self.inputs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(k, &mut out);
                out.push(':');
                json::write_f64(*v, &mut out);
            }
            out.push('}');
        }
        if !self.delta.is_empty() {
            out.push_str(",\"delta\":{");
            for (i, (k, before, after)) in self.delta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(k, &mut out);
                out.push_str(":[");
                json::write_f64(*before, &mut out);
                out.push(',');
                json::write_f64(*after, &mut out);
                out.push(']');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line back into an [`Event`].
    pub fn from_json(line: &str) -> Result<Event, String> {
        let doc = json::parse(line)?;
        let req_u64 = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(json::Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        let opt_u32 = |key: &str| -> Result<Option<u32>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| format!("field {key:?} is not a u32")),
            }
        };
        let actor_str = doc
            .get("actor")
            .and_then(json::Json::as_str)
            .ok_or("missing actor")?;
        let kind_str = doc
            .get("kind")
            .and_then(json::Json::as_str)
            .ok_or("missing kind")?;
        let mut ev = Event::new(Actor::parse(actor_str)?, ActionKind::parse(kind_str)?);
        ev.seq = req_u64("seq")?;
        ev.epoch = req_u64("epoch")?;
        ev.t_us = req_u64("t_us")?;
        ev.app = opt_u32("app")?;
        ev.vip = opt_u32("vip")?;
        ev.pod = opt_u32("pod")?;
        ev.vm = opt_u32("vm")?;
        ev.link = opt_u32("link")?;
        ev.switch = opt_u32("switch")?;
        ev.server = opt_u32("server")?;
        if let Some(note) = doc.get("note") {
            ev.note = Cow::Owned(note.as_str().ok_or("note is not a string")?.to_string());
        }
        if let Some(inputs) = doc.get("inputs") {
            for (k, v) in inputs.as_obj().ok_or("inputs is not an object")? {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("input {k:?} not a number"))?;
                ev.inputs.push((Cow::Owned(k.clone()), v));
            }
        }
        if let Some(delta) = doc.get("delta") {
            for (k, v) in delta.as_obj().ok_or("delta is not an object")? {
                let pair = v
                    .as_arr()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| format!("delta {k:?} not a [before,after] pair"))?;
                let before = pair[0]
                    .as_f64()
                    .ok_or_else(|| format!("delta {k:?} before not a number"))?;
                let after = pair[1]
                    .as_f64()
                    .ok_or_else(|| format!("delta {k:?} after not a number"))?;
                ev.delta.push((Cow::Owned(k.clone()), before, after));
            }
        }
        Ok(ev)
    }
}

/// The flight recorder: a bounded event ring plus an optional JSONL
/// sink, owned by the `GlobalManager` and shared by every emitter in
/// the epoch loop.
///
/// All stamps come from the simulation clock handed to
/// [`Recorder::begin_epoch`]; the recorder itself never reads time, so
/// recording cannot perturb determinism — and is itself deterministic.
/// Sink write failures are counted ([`Recorder::sink_errors`]), never
/// propagated: observability must not take down a release run.
#[derive(Debug, Default)]
pub struct Recorder {
    ring: VecDeque<Event>,
    /// Configured capacity; 0 means [`DEFAULT_RING_CAPACITY`].
    capacity: usize,
    seq: u64,
    epoch: u64,
    t_us: u64,
    dropped: u64,
    /// Events committed this epoch, per kind (by `ActionKind::index`).
    epoch_counts: [u64; KIND_COUNT],
    /// Events committed in the whole run, per kind.
    total_counts: [u64; KIND_COUNT],
    last_scale_dir: BTreeMap<u32, i8>,
    flipflops: u64,
    sink: Option<std::fs::File>,
    sink_errors: u64,
}

impl Recorder {
    /// Start a new epoch: subsequent events are stamped `(epoch, now)`
    /// and the per-epoch kind counters reset (they feed
    /// [`Recorder::emit_epoch_health`]).
    pub fn begin_epoch(&mut self, epoch: u64, now: dcsim::SimTime) {
        self.epoch = epoch;
        self.t_us = now.as_micros();
        self.epoch_counts = [0; KIND_COUNT];
    }

    /// Open a builder for one event. Nothing is recorded until
    /// [`EventBuilder::commit`].
    pub fn event(&mut self, actor: Actor, kind: ActionKind) -> EventBuilder<'_> {
        EventBuilder {
            ev: Event::new(actor, kind),
            rec: self,
        }
    }

    /// Emit the per-epoch health record: one `EpochHealth` event whose
    /// inputs are `count.<kind>` for every kind recorded this epoch
    /// plus the caller's load summary (`extra`).
    pub fn emit_epoch_health(&mut self, extra: &[(&'static str, f64)]) {
        let mut counts: Vec<(&'static str, u64)> = (0..KIND_COUNT)
            .filter(|&i| self.epoch_counts[i] > 0)
            .map(|i| (ActionKind::from_index(i).key(), self.epoch_counts[i]))
            .collect();
        counts.sort_unstable();
        let counts: Vec<(Cow<'static, str>, f64)> = counts
            .into_iter()
            .map(|(k, n)| (Cow::Owned(format!("count.{k}")), n as f64))
            .collect();
        let mut b = self.event(Actor::Platform, ActionKind::EpochHealth);
        for (k, v) in counts {
            b.ev.inputs.push((k, v));
        }
        for (k, v) in extra {
            b.ev.inputs.push((Cow::Borrowed(*k), *v));
        }
        b.commit();
    }

    /// Attach a JSONL sink; each committed event is appended as one
    /// line. The file is handed over open (truncation/append policy is
    /// the caller's).
    pub fn set_sink(&mut self, sink: std::fs::File) {
        self.sink = Some(sink);
    }

    /// Override the ring capacity (0 restores the default). Does not
    /// shrink an already-fuller ring until the next commit.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    fn effective_capacity(&self) -> usize {
        if self.capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            self.capacity
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Drain the ring (oldest first), leaving it empty. Experiment
    /// harnesses use this to inspect per-epoch decisions without
    /// unbounded growth.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.ring.drain(..).collect()
    }

    /// Events evicted from the ring so far (sink lines are never
    /// dropped).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Failed sink writes so far (they are counted, not propagated).
    pub fn sink_errors(&self) -> u64 {
        self.sink_errors
    }

    /// The current epoch stamp.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative count of committed events of one kind (never reset,
    /// unlike the per-epoch window feeding
    /// [`Recorder::emit_epoch_health`]). The metrics registry scrapes
    /// these at epoch close.
    pub fn total_count(&self, kind: ActionKind) -> u64 {
        self.total_counts[kind.index()]
    }

    /// Cumulative per-app scale-direction reversals (see
    /// [`scale_direction`]) across the whole run.
    pub fn flipflops(&self) -> u64 {
        self.flipflops
    }

    fn commit(&mut self, mut ev: Event) {
        ev.seq = self.seq;
        self.seq += 1;
        ev.epoch = self.epoch;
        ev.t_us = self.t_us;
        self.epoch_counts[ev.kind.index()] += 1;
        self.total_counts[ev.kind.index()] += 1;
        if let (Some(app), Some(dir)) = (ev.app, scale_direction(ev.kind)) {
            if let Some(prev) = self.last_scale_dir.insert(app, dir) {
                if prev != dir {
                    self.flipflops += 1;
                }
            }
        }
        if let Some(sink) = self.sink.as_mut() {
            let line = ev.to_json_line();
            if writeln!(sink, "{line}").is_err() {
                self.sink_errors += 1;
            }
        }
        let cap = self.effective_capacity();
        while self.ring.len() >= cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }
}

/// In-progress event under construction; see [`Recorder::event`].
#[derive(Debug)]
pub struct EventBuilder<'a> {
    rec: &'a mut Recorder,
    ev: Event,
}

impl EventBuilder<'_> {
    /// Tag the target application.
    pub fn app(mut self, id: u32) -> Self {
        self.ev.app = Some(id);
        self
    }

    /// Tag the target VIP.
    pub fn vip(mut self, id: u32) -> Self {
        self.ev.vip = Some(id);
        self
    }

    /// Tag the target pod.
    pub fn pod(mut self, id: u32) -> Self {
        self.ev.pod = Some(id);
        self
    }

    /// Tag the target VM.
    pub fn vm(mut self, id: u32) -> Self {
        self.ev.vm = Some(id);
        self
    }

    /// Tag the target access link / router.
    pub fn link(mut self, id: u32) -> Self {
        self.ev.link = Some(id);
        self
    }

    /// Tag the target LB switch.
    pub fn switch(mut self, id: u32) -> Self {
        self.ev.switch = Some(id);
        self
    }

    /// Tag the target server.
    pub fn server(mut self, id: u32) -> Self {
        self.ev.server = Some(id);
        self
    }

    /// Attach a free-form qualifier (drain phase, abort reason, …).
    pub fn note(mut self, note: &'static str) -> Self {
        self.ev.note = Cow::Borrowed(note);
        self
    }

    /// Record one decision input.
    pub fn input(mut self, key: &'static str, value: f64) -> Self {
        self.ev.inputs.push((Cow::Borrowed(key), value));
        self
    }

    /// Record one state delta.
    pub fn delta(mut self, key: &'static str, before: f64, after: f64) -> Self {
        self.ev.delta.push((Cow::Borrowed(key), before, after));
        self
    }

    /// Stamp (seq, epoch, sim time) and record the event.
    pub fn commit(self) {
        let EventBuilder { rec, ev } = self;
        rec.commit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimTime;

    fn sample_event() -> Event {
        let mut rec = Recorder::default();
        rec.begin_epoch(7, SimTime::from_secs(210));
        rec.event(Actor::Global, ActionKind::Global(GlobalAction::Reweight))
            .vip(3)
            .app(1)
            .note("water-fill")
            .input("forecast.pod_util_max", 0.9125)
            .input("cfg.reweight_step", 0.25)
            .delta("rip_weights.max", 1.0, 0.75)
            .commit();
        rec.take_events().remove(0)
    }

    #[test]
    fn serialization_roundtrip() {
        let ev = sample_event();
        let line = ev.to_json_line();
        let back = Event::from_json(&line).unwrap();
        assert_eq!(ev, back);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn borrowed_note_roundtrips_as_owned() {
        let mut rec = Recorder::default();
        rec.begin_epoch(3, SimTime::from_secs(90));
        rec.event(Actor::Queue, ActionKind::QueueApply)
            .vip(9)
            .note("AdjustPodWeights -> Failed")
            .input("ctl.starved_epochs", 4.0)
            .delta("dns_exposure.vips", 2.0, 3.0)
            .commit();
        let ev = rec.take_events().remove(0);
        // Recording borrows the note and every key; parsing owns them.
        assert!(matches!(ev.note, Cow::Borrowed(_)));
        assert!(matches!(ev.inputs[0].0, Cow::Borrowed(_)));
        assert!(matches!(ev.delta[0].0, Cow::Borrowed(_)));
        let line = ev.to_json_line();
        let back = Event::from_json(&line).unwrap();
        assert!(matches!(back.note, Cow::Owned(_)));
        assert!(matches!(back.inputs[0].0, Cow::Owned(_)));
        assert!(matches!(back.delta[0].0, Cow::Owned(_)));
        assert_eq!(ev, back);
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn serialized_key_order_is_stable() {
        let line = sample_event().to_json_line();
        let seq = line.find("\"seq\"").unwrap();
        let epoch = line.find("\"epoch\"").unwrap();
        let kind = line.find("\"kind\"").unwrap();
        let inputs = line.find("\"inputs\"").unwrap();
        let delta = line.find("\"delta\"").unwrap();
        assert!(seq < epoch && epoch < kind && kind < inputs && inputs < delta);
    }

    #[test]
    fn every_kind_roundtrips() {
        for kind in footprint::ALL_ACTIONS
            .into_iter()
            .map(ActionKind::Global)
            .chain(STRUCTURAL_KINDS)
        {
            assert_eq!(ActionKind::parse(kind.key()), Ok(kind));
        }
    }

    #[test]
    fn actor_roundtrips() {
        for actor in [
            Actor::Global,
            Actor::Elastic,
            Actor::Pod(42),
            Actor::Queue,
            Actor::Platform,
        ] {
            let mut s = String::new();
            actor.write_to(&mut s);
            assert_eq!(Actor::parse(&s), Ok(actor));
        }
        assert!(Actor::parse("pod:x").is_err());
        assert!(Actor::parse("nobody").is_err());
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut rec = Recorder::default();
        rec.set_capacity(4);
        rec.begin_epoch(0, SimTime::ZERO);
        for i in 0..6u32 {
            rec.event(Actor::Global, ActionKind::Global(GlobalAction::Reweight))
                .vip(i)
                .commit();
        }
        assert_eq!(rec.dropped(), 2);
        let vips: Vec<u32> = rec.events().filter_map(|e| e.vip).collect();
        assert_eq!(vips, vec![2, 3, 4, 5]); // 0 and 1 evicted, order kept
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]); // seq keeps counting past drops
    }

    #[test]
    fn kind_index_is_a_bijection() {
        let kinds: Vec<ActionKind> = footprint::ALL_ACTIONS
            .into_iter()
            .map(ActionKind::Global)
            .chain(STRUCTURAL_KINDS)
            .collect();
        assert_eq!(kinds.len(), KIND_COUNT);
        for (i, kind) in kinds.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
            assert_eq!(ActionKind::from_index(i), kind);
        }
    }

    #[test]
    fn total_counts_survive_epoch_resets() {
        let mut rec = Recorder::default();
        rec.begin_epoch(0, SimTime::ZERO);
        rec.event(Actor::Queue, ActionKind::QueueApply).commit();
        rec.begin_epoch(1, SimTime::from_secs(30));
        rec.event(Actor::Queue, ActionKind::QueueApply).commit();
        rec.event(Actor::Pod(1), ActionKind::PodPlan).commit();
        assert_eq!(rec.total_count(ActionKind::QueueApply), 2);
        assert_eq!(rec.total_count(ActionKind::PodPlan), 1);
        assert_eq!(rec.total_count(ActionKind::InstanceStart), 0);
    }

    #[test]
    fn flipflops_count_per_app_direction_reversals() {
        let mut rec = Recorder::default();
        rec.begin_epoch(0, SimTime::ZERO);
        let emit = |rec: &mut Recorder, kind, app| {
            rec.event(Actor::Elastic, kind).app(app).commit();
        };
        emit(&mut rec, ActionKind::ProactiveDeploy, 1); // first dir: no flip
        emit(&mut rec, ActionKind::ProactiveDeploy, 1); // same dir: no flip
        emit(&mut rec, ActionKind::ProactiveRetire, 1); // reversal: flip 1
        emit(&mut rec, ActionKind::InstanceStart, 1); // reversal: flip 2
        emit(&mut rec, ActionKind::ProactiveRetire, 2); // other app, first dir
        emit(&mut rec, ActionKind::QueueApply, 2); // neutral kind: ignored
        emit(&mut rec, ActionKind::Global(GlobalAction::Deployment), 2); // flip 3
        assert_eq!(rec.flipflops(), 3);
        assert_eq!(scale_direction(ActionKind::EpochHealth), None);
    }

    #[test]
    fn epoch_health_rolls_up_counts() {
        let mut rec = Recorder::default();
        rec.begin_epoch(3, SimTime::from_secs(90));
        for _ in 0..2 {
            rec.event(Actor::Global, ActionKind::Global(GlobalAction::QueueRetire))
                .vm(1)
                .commit();
        }
        rec.event(Actor::Queue, ActionKind::QueueApply).commit();
        rec.emit_epoch_health(&[("load.served_fraction", 0.99)]);
        let evs = rec.take_events();
        let health = evs.last().unwrap();
        assert_eq!(health.kind, ActionKind::EpochHealth);
        assert!(health.inputs.contains(&("count.QueueRetire".into(), 2.0)));
        assert!(health.inputs.contains(&("count.QueueApply".into(), 1.0)));
        assert!(health
            .inputs
            .contains(&("load.served_fraction".into(), 0.99)));
        // Next epoch starts a fresh count window.
        rec.begin_epoch(4, SimTime::from_secs(120));
        rec.emit_epoch_health(&[]);
        let evs = rec.take_events();
        assert!(evs[0]
            .inputs
            .iter()
            .all(|(k, _)| !k.starts_with("count.Queue")));
    }
}
