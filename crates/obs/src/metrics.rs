//! Deterministic metrics: a typed registry of counters, gauges and
//! fixed-bucket histograms over the control plane's epoch loop.
//!
//! The registry is built from the static [`METRICS`] catalog, so
//! registration order is a compile-time constant: instrument handles are
//! plain indices ([`ids`]), iteration order equals catalog order, and
//! two runs produce instruments in the same order by construction.
//! Every value is derived from simulation state (sim-clock, seeded
//! demand, recorder counts) — never wall-clock — so a rendered export
//! is byte-identical across same-seed reruns. Wall-time lives in
//! [`crate::profile`] instead, deliberately quarantined from these
//! exports.
//!
//! The `analyze` `metric-doc` lint keeps this catalog honest: every
//! metric name must be documented in DESIGN.md §"Metrics & profiling"
//! and every declared epoch phase ([`crate::phases::EPOCH_PHASES`])
//! must have at least one emitting metric.

use crate::json;
use std::fmt::Write as _;

/// The type of one registered instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing `u64`.
    Counter,
    /// Point-in-time `f64`, overwritten each epoch.
    Gauge,
    /// Fixed-bucket cumulative histogram of `f64` observations.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` token.
    pub fn token(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One catalog entry: a metric name plus its static label set, emitting
/// phase, and (for histograms) bucket bounds. Several specs may share a
/// `name` with different `labels` (one instrument per label set); such
/// specs must be contiguous in [`METRICS`] and agree on kind and help.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Prometheus-style metric name (`megadc_` prefix).
    pub name: &'static str,
    /// Instrument type.
    pub kind: MetricKind,
    /// Static label pairs distinguishing this instrument, may be empty.
    pub labels: &'static [(&'static str, &'static str)],
    /// The epoch phase (see [`crate::phases::EPOCH_PHASES`]) whose work
    /// this metric measures. The registry itself is written only in
    /// `epoch-close` (the declared `Metrics` writer); this field names
    /// the *semantic* source phase for the catalog and the heat report.
    pub phase: &'static str,
    /// One-line description (the `# HELP` text).
    pub help: &'static str,
    /// Histogram bucket upper bounds (ascending); empty for non-histograms.
    pub buckets: &'static [f64],
}

/// Utilization bucket bounds shared by the link/pod histograms.
pub const UTIL_BUCKETS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25];

/// The full instrument catalog, in registration order. Indices into
/// this slice are the instrument handles ([`ids`]).
pub const METRICS: &[MetricSpec] = &[
    // -- demand-fill ----------------------------------------------------
    MetricSpec {
        name: "megadc_offered_bps",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "demand-fill",
        help: "Total offered external demand this epoch, bits/s",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_apps_active",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "demand-fill",
        help: "Applications with non-zero offered demand this epoch",
        buckets: &[],
    },
    // -- demand-route ---------------------------------------------------
    MetricSpec {
        name: "megadc_link_util_max",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "demand-route",
        help: "Maximum access-link utilization this epoch",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_link_util",
        kind: MetricKind::Histogram,
        labels: &[],
        phase: "demand-route",
        help: "Access-link utilization distribution this epoch",
        buckets: UTIL_BUCKETS,
    },
    // -- demand-switch-reset --------------------------------------------
    MetricSpec {
        name: "megadc_switch_util_max",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "demand-switch-reset",
        help: "Maximum LB-switch utilization this epoch",
        buckets: &[],
    },
    // -- demand-serve ---------------------------------------------------
    MetricSpec {
        name: "megadc_served_fraction",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "demand-serve",
        help: "Fraction of offered demand served this epoch",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_unserved_bps",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "demand-serve",
        help: "Unserved demand this epoch, bits/s",
        buckets: &[],
    },
    // -- pod-planning ---------------------------------------------------
    MetricSpec {
        name: "megadc_pod_util_max",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "pod-planning",
        help: "Maximum pod CPU utilization this epoch",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_pod_util",
        kind: MetricKind::Histogram,
        labels: &[],
        phase: "pod-planning",
        help: "Pod CPU utilization distribution this epoch",
        buckets: UTIL_BUCKETS,
    },
    MetricSpec {
        name: "megadc_pod_plans_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "pod-planning",
        help: "Pod-manager decision rounds recorded",
        buckets: &[],
    },
    // -- plan-application -----------------------------------------------
    MetricSpec {
        name: "megadc_instance_starts_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "plan-application",
        help: "VM instances started by applied pod plans",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_instance_stops_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "plan-application",
        help: "VM instances stopped by applied pod plans",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_slice_adjustments_total",
        kind: MetricKind::Counter,
        labels: &[("outcome", "applied")],
        phase: "plan-application",
        help: "CPU slice adjustments from pod plans, applied or refused by the fleet",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_slice_adjustments_total",
        kind: MetricKind::Counter,
        labels: &[("outcome", "refused")],
        phase: "plan-application",
        help: "CPU slice adjustments from pod plans, applied or refused by the fleet",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_placement_changes_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "plan-application",
        help: "Placement changes applied from pod plans",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_pod_weight_requests_total",
        kind: MetricKind::Counter,
        labels: &[("outcome", "emitted")],
        phase: "plan-application",
        help: "Pod RIP-weight requests submitted from pod plans, and those the queue drain skipped as changing no weight",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_pod_weight_requests_total",
        kind: MetricKind::Counter,
        labels: &[("outcome", "unchanged")],
        phase: "queue-drain",
        help: "Pod RIP-weight requests submitted from pod plans, and those the queue drain skipped as changing no weight",
        buckets: &[],
    },
    // -- proactive-pass -------------------------------------------------
    MetricSpec {
        name: "megadc_proactive_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "deploy")],
        phase: "proactive-pass",
        help: "Granted proactive elasticity actions, by action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_proactive_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "retire")],
        phase: "proactive-pass",
        help: "Granted proactive elasticity actions, by action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_proactive_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "reweight")],
        phase: "proactive-pass",
        help: "Granted proactive elasticity actions, by action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_proactive_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "slice-adjust")],
        phase: "proactive-pass",
        help: "Granted proactive elasticity actions, by action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_forecast_mape",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "proactive-pass",
        help: "Mean absolute percentage error of the one-epoch demand forecast (0 when reactive)",
        buckets: &[],
    },
    // -- global-knobs ---------------------------------------------------
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "Reweight")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "VipTransfer")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "QueueRetire")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "ServerTransfer")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "Deployment")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "ExposureRefresh")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "MisroutingEscape")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_global_actions_total",
        kind: MetricKind::Counter,
        labels: &[("action", "ElephantRelief")],
        phase: "global-knobs",
        help: "Global-manager knob actuations, by declared action",
        buckets: &[],
    },
    // -- queue-drain ----------------------------------------------------
    MetricSpec {
        name: "megadc_queue_applies_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "queue-drain",
        help: "Requests applied by the serialized VIP/RIP queue",
        buckets: &[],
    },
    // -- rip-bind -------------------------------------------------------
    MetricSpec {
        name: "megadc_rips_bound_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "rip-bind",
        help: "RIP bindings submitted for running VMs without a RIP",
        buckets: &[],
    },
    // -- epoch-close ----------------------------------------------------
    MetricSpec {
        name: "megadc_epochs_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "epoch-close",
        help: "Completed control epochs",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_switch_reconfigs_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "epoch-close",
        help: "Cumulative LB-switch reconfigurations",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_dns_exposure_updates_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "epoch-close",
        help: "Cumulative DNS exposure updates",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_obs_ring_dropped_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "epoch-close",
        help: "Events evicted from the flight-recorder ring",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_obs_sink_errors_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "epoch-close",
        help: "Failed flight-recorder JSONL sink writes",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_slo_overload_epochs_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "epoch-close",
        help: "Epochs with served fraction below the SLO threshold",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_slo_relief_epochs",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "epoch-close",
        help: "Current streak of consecutive epochs meeting the SLO",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_slo_reconfig_churn",
        kind: MetricKind::Gauge,
        labels: &[],
        phase: "epoch-close",
        help: "Switch reconfigurations performed in this epoch alone",
        buckets: &[],
    },
    MetricSpec {
        name: "megadc_slo_flipflops_total",
        kind: MetricKind::Counter,
        labels: &[],
        phase: "epoch-close",
        help: "Cumulative per-app scale-direction reversals",
        buckets: &[],
    },
];

/// Instrument handles: each constant is the index of its catalog entry
/// in [`METRICS`]. A unit test pins every constant to its spec name, so
/// a catalog reorder cannot silently retarget a handle.
pub mod ids {
    /// `megadc_offered_bps`.
    pub const OFFERED_BPS: usize = 0;
    /// `megadc_apps_active`.
    pub const APPS_ACTIVE: usize = 1;
    /// `megadc_link_util_max`.
    pub const LINK_UTIL_MAX: usize = 2;
    /// `megadc_link_util` histogram.
    pub const LINK_UTIL: usize = 3;
    /// `megadc_switch_util_max`.
    pub const SWITCH_UTIL_MAX: usize = 4;
    /// `megadc_served_fraction`.
    pub const SERVED_FRACTION: usize = 5;
    /// `megadc_unserved_bps`.
    pub const UNSERVED_BPS: usize = 6;
    /// `megadc_pod_util_max`.
    pub const POD_UTIL_MAX: usize = 7;
    /// `megadc_pod_util` histogram.
    pub const POD_UTIL: usize = 8;
    /// `megadc_pod_plans_total`.
    pub const POD_PLANS: usize = 9;
    /// `megadc_instance_starts_total`.
    pub const INSTANCE_STARTS: usize = 10;
    /// `megadc_instance_stops_total`.
    pub const INSTANCE_STOPS: usize = 11;
    /// `megadc_slice_adjustments_total{outcome="applied"}`.
    pub const SLICE_ADJUSTMENTS: usize = 12;
    /// `megadc_slice_adjustments_total{outcome="refused"}`.
    pub const SLICE_ADJUSTMENTS_REFUSED: usize = 13;
    /// `megadc_placement_changes_total`.
    pub const PLACEMENT_CHANGES: usize = 14;
    /// `megadc_pod_weight_requests_total{outcome="emitted"}`.
    pub const WEIGHT_REQUESTS_EMITTED: usize = 15;
    /// `megadc_pod_weight_requests_total{outcome="unchanged"}`.
    pub const WEIGHT_REQUESTS_UNCHANGED: usize = 16;
    /// `megadc_proactive_actions_total{action="deploy"}`.
    pub const PROACTIVE_DEPLOY: usize = 17;
    /// `megadc_proactive_actions_total{action="retire"}`.
    pub const PROACTIVE_RETIRE: usize = 18;
    /// `megadc_proactive_actions_total{action="reweight"}`.
    pub const PROACTIVE_REWEIGHT: usize = 19;
    /// `megadc_proactive_actions_total{action="slice-adjust"}`.
    pub const PROACTIVE_SLICE: usize = 20;
    /// `megadc_forecast_mape`.
    pub const FORECAST_MAPE: usize = 21;
    /// `megadc_global_actions_total{action="Reweight"}` — the seven
    /// siblings follow contiguously in `footprint::ALL_ACTIONS` order.
    pub const GLOBAL_ACTIONS_BASE: usize = 22;
    /// `megadc_queue_applies_total`.
    pub const QUEUE_APPLIES: usize = 30;
    /// `megadc_rips_bound_total`.
    pub const RIPS_BOUND: usize = 31;
    /// `megadc_epochs_total`.
    pub const EPOCHS: usize = 32;
    /// `megadc_switch_reconfigs_total`.
    pub const SWITCH_RECONFIGS: usize = 33;
    /// `megadc_dns_exposure_updates_total`.
    pub const DNS_EXPOSURE_UPDATES: usize = 34;
    /// `megadc_obs_ring_dropped_total`.
    pub const OBS_RING_DROPPED: usize = 35;
    /// `megadc_obs_sink_errors_total`.
    pub const OBS_SINK_ERRORS: usize = 36;
    /// `megadc_slo_overload_epochs_total`.
    pub const SLO_OVERLOAD_EPOCHS: usize = 37;
    /// `megadc_slo_relief_epochs`.
    pub const SLO_RELIEF_EPOCHS: usize = 38;
    /// `megadc_slo_reconfig_churn`.
    pub const SLO_RECONFIG_CHURN: usize = 39;
    /// `megadc_slo_flipflops_total`.
    pub const SLO_FLIPFLOPS: usize = 40;
}

/// One instrument's current value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram {
        /// Per-bucket (non-cumulative) observation counts, parallel to
        /// the spec's `buckets`, plus one overflow slot at the end.
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

/// The metrics registry: one value slot per [`METRICS`] entry, stamped
/// with the sim clock by [`Registry::begin_epoch`].
///
/// Every mutator is bounds- and kind-checked and silently ignores a
/// mismatched call — a misrouted metric update must never panic a
/// release run (the `obs` crate's panicking ratchet is pinned at zero).
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    values: Vec<Value>,
    epoch: u64,
    t_us: u64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry with every instrument zeroed, in catalog order.
    pub fn new() -> Registry {
        let values = METRICS
            .iter()
            .map(|spec| match spec.kind {
                MetricKind::Counter => Value::Counter(0),
                MetricKind::Gauge => Value::Gauge(0.0),
                MetricKind::Histogram => Value::Histogram {
                    counts: vec![0; spec.buckets.len() + 1],
                    sum: 0.0,
                    count: 0,
                },
            })
            .collect();
        Registry {
            values,
            epoch: 0,
            t_us: 0,
        }
    }

    /// Number of instruments (equals `METRICS.len()`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the catalog is empty (it never is; for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Stamp the registry with the current epoch and sim-clock
    /// microseconds (rendered into the export header).
    pub fn stamp(&mut self, epoch: u64, t_us: u64) {
        self.epoch = epoch;
        self.t_us = t_us;
    }

    /// Increment a counter by `n`. Ignored for non-counters.
    pub fn add(&mut self, id: usize, n: u64) {
        if let Some(Value::Counter(c)) = self.values.get_mut(id) {
            *c += n;
        }
    }

    /// Set a counter from a cumulative external source, monotonically:
    /// the stored value only ever ratchets up. Ignored for non-counters.
    pub fn set_counter(&mut self, id: usize, total: u64) {
        if let Some(Value::Counter(c)) = self.values.get_mut(id) {
            *c = (*c).max(total);
        }
    }

    /// Overwrite a gauge. Non-finite values are recorded as 0 (exports
    /// must stay parseable). Ignored for non-gauges.
    pub fn set_gauge(&mut self, id: usize, v: f64) {
        if let Some(Value::Gauge(g)) = self.values.get_mut(id) {
            *g = if v.is_finite() { v } else { 0.0 };
        }
    }

    /// Record one histogram observation. Non-finite observations are
    /// dropped. Ignored for non-histograms.
    pub fn observe(&mut self, id: usize, v: f64) {
        let Some(spec) = METRICS.get(id) else { return };
        if !v.is_finite() {
            return;
        }
        if let Some(Value::Histogram { counts, sum, count }) = self.values.get_mut(id) {
            let slot = spec
                .buckets
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(spec.buckets.len());
            if let Some(c) = counts.get_mut(slot) {
                *c += 1;
            }
            *sum += v;
            *count += 1;
        }
    }

    /// A counter's current value (0 for non-counters).
    pub fn counter(&self, id: usize) -> u64 {
        match self.values.get(id) {
            Some(Value::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A gauge's current value (0.0 for non-gauges).
    pub fn gauge(&self, id: usize) -> f64 {
        match self.values.get(id) {
            Some(Value::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    /// A histogram's total observation count (0 for non-histograms).
    pub fn histogram_count(&self, id: usize) -> u64 {
        match self.values.get(id) {
            Some(Value::Histogram { count, .. }) => *count,
            _ => 0,
        }
    }

    fn write_labels(spec: &MetricSpec, out: &mut String) {
        if spec.labels.is_empty() {
            return;
        }
        out.push('{');
        for (i, (k, v)) in spec.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
    }

    /// Render the Prometheus-style text exposition: a `# run:` header
    /// (plus the sim-clock stamp), then one `# HELP`/`# TYPE` pair per
    /// unique name followed by its samples in catalog order. The output
    /// is a pure function of the registry contents — byte-identical
    /// across same-seed reruns.
    pub fn render_text(&self, run: &str) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# run: {run}");
        let _ = writeln!(out, "# epoch: {}", self.epoch);
        let _ = writeln!(out, "# t_us: {}", self.t_us);
        let mut last_name = "";
        for (id, spec) in METRICS.iter().enumerate() {
            if spec.name != last_name {
                let _ = writeln!(out, "# HELP {} {}", spec.name, spec.help);
                let _ = writeln!(out, "# TYPE {} {}", spec.name, spec.kind.token());
                last_name = spec.name;
            }
            match self.values.get(id) {
                Some(Value::Counter(c)) => {
                    out.push_str(spec.name);
                    Self::write_labels(spec, &mut out);
                    let _ = writeln!(out, " {c}");
                }
                Some(Value::Gauge(g)) => {
                    out.push_str(spec.name);
                    Self::write_labels(spec, &mut out);
                    out.push(' ');
                    json::write_f64(*g, &mut out);
                    out.push('\n');
                }
                Some(Value::Histogram { counts, sum, count }) => {
                    let mut cumulative = 0u64;
                    for (i, &bound) in spec.buckets.iter().enumerate() {
                        cumulative += counts.get(i).copied().unwrap_or(0);
                        let _ = write!(out, "{}_bucket{{le=\"", spec.name);
                        json::write_f64(bound, &mut out);
                        let _ = writeln!(out, "\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {count}", spec.name);
                    let _ = write!(out, "{}_sum ", spec.name);
                    json::write_f64(*sum, &mut out);
                    out.push('\n');
                    let _ = writeln!(out, "{}_count {count}", spec.name);
                }
                None => {}
            }
        }
        out
    }
}

/// Per-epoch SLO score: the service-level inputs folded into the
/// `EpochHealth` event (as `slo.*` inputs) and the `megadc_slo_*`
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloScore {
    /// Cumulative epochs with served fraction below the threshold.
    pub overload_epochs: u64,
    /// Current streak of consecutive epochs meeting the SLO (the
    /// "relief time" signal: how long the platform has stayed healthy).
    pub relief_epochs: u64,
    /// Switch reconfigurations performed in this epoch alone.
    pub reconfig_churn: u64,
    /// Cumulative per-app scale-direction reversals (flip-flops).
    pub flipflops: u64,
}

/// Scores each epoch against the [`SLO_THRESHOLD`] served fraction and
/// tracks overload streaks and reconfiguration churn. Pure sim-state
/// arithmetic — deterministic by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloTracker {
    overload_epochs: u64,
    relief_epochs: u64,
    last_reconfigs: u64,
}

/// The served-fraction SLO threshold (matches the experiments' overload
/// definition).
pub const SLO_THRESHOLD: f64 = 0.99;

impl SloTracker {
    /// Fold one epoch's observations in and return the updated score.
    /// `reconfigs_total` and `flipflops_total` are cumulative sources;
    /// churn is derived as the delta since the previous epoch.
    pub fn score_epoch(
        &mut self,
        served_fraction: f64,
        reconfigs_total: u64,
        flipflops_total: u64,
    ) -> SloScore {
        if served_fraction < SLO_THRESHOLD {
            self.overload_epochs += 1;
            self.relief_epochs = 0;
        } else {
            self.relief_epochs += 1;
        }
        let churn = reconfigs_total.saturating_sub(self.last_reconfigs);
        self.last_reconfigs = reconfigs_total;
        SloScore {
            overload_epochs: self.overload_epochs,
            relief_epochs: self.relief_epochs,
            reconfig_churn: churn,
            flipflops: flipflops_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::ALL_ACTIONS;
    use crate::phases::EPOCH_PHASES;
    use std::collections::BTreeSet;

    #[test]
    fn id_constants_match_catalog_names() {
        let cases: &[(usize, &str)] = &[
            (ids::OFFERED_BPS, "megadc_offered_bps"),
            (ids::APPS_ACTIVE, "megadc_apps_active"),
            (ids::LINK_UTIL_MAX, "megadc_link_util_max"),
            (ids::LINK_UTIL, "megadc_link_util"),
            (ids::SWITCH_UTIL_MAX, "megadc_switch_util_max"),
            (ids::SERVED_FRACTION, "megadc_served_fraction"),
            (ids::UNSERVED_BPS, "megadc_unserved_bps"),
            (ids::POD_UTIL_MAX, "megadc_pod_util_max"),
            (ids::POD_UTIL, "megadc_pod_util"),
            (ids::POD_PLANS, "megadc_pod_plans_total"),
            (ids::INSTANCE_STARTS, "megadc_instance_starts_total"),
            (ids::INSTANCE_STOPS, "megadc_instance_stops_total"),
            (ids::SLICE_ADJUSTMENTS, "megadc_slice_adjustments_total"),
            (
                ids::SLICE_ADJUSTMENTS_REFUSED,
                "megadc_slice_adjustments_total",
            ),
            (ids::PLACEMENT_CHANGES, "megadc_placement_changes_total"),
            (
                ids::WEIGHT_REQUESTS_EMITTED,
                "megadc_pod_weight_requests_total",
            ),
            (
                ids::WEIGHT_REQUESTS_UNCHANGED,
                "megadc_pod_weight_requests_total",
            ),
            (ids::PROACTIVE_DEPLOY, "megadc_proactive_actions_total"),
            (ids::PROACTIVE_RETIRE, "megadc_proactive_actions_total"),
            (ids::PROACTIVE_REWEIGHT, "megadc_proactive_actions_total"),
            (ids::PROACTIVE_SLICE, "megadc_proactive_actions_total"),
            (ids::FORECAST_MAPE, "megadc_forecast_mape"),
            (ids::GLOBAL_ACTIONS_BASE, "megadc_global_actions_total"),
            (ids::QUEUE_APPLIES, "megadc_queue_applies_total"),
            (ids::RIPS_BOUND, "megadc_rips_bound_total"),
            (ids::EPOCHS, "megadc_epochs_total"),
            (ids::SWITCH_RECONFIGS, "megadc_switch_reconfigs_total"),
            (
                ids::DNS_EXPOSURE_UPDATES,
                "megadc_dns_exposure_updates_total",
            ),
            (ids::OBS_RING_DROPPED, "megadc_obs_ring_dropped_total"),
            (ids::OBS_SINK_ERRORS, "megadc_obs_sink_errors_total"),
            (ids::SLO_OVERLOAD_EPOCHS, "megadc_slo_overload_epochs_total"),
            (ids::SLO_RELIEF_EPOCHS, "megadc_slo_relief_epochs"),
            (ids::SLO_RECONFIG_CHURN, "megadc_slo_reconfig_churn"),
            (ids::SLO_FLIPFLOPS, "megadc_slo_flipflops_total"),
        ];
        for &(id, name) in cases {
            assert_eq!(METRICS[id].name, name, "id {id}");
        }
        // Proactive label variants.
        assert_eq!(
            METRICS[ids::PROACTIVE_DEPLOY].labels,
            [("action", "deploy")]
        );
        assert_eq!(
            METRICS[ids::PROACTIVE_RETIRE].labels,
            [("action", "retire")]
        );
        assert_eq!(
            METRICS[ids::PROACTIVE_REWEIGHT].labels,
            [("action", "reweight")]
        );
        assert_eq!(
            METRICS[ids::PROACTIVE_SLICE].labels,
            [("action", "slice-adjust")]
        );
        // Slice-adjustment and pod weight-request label variants.
        let outcomes = [
            (ids::SLICE_ADJUSTMENTS, "applied"),
            (ids::SLICE_ADJUSTMENTS_REFUSED, "refused"),
            (ids::WEIGHT_REQUESTS_EMITTED, "emitted"),
            (ids::WEIGHT_REQUESTS_UNCHANGED, "unchanged"),
        ];
        for (id, outcome) in outcomes {
            assert_eq!(METRICS[id].labels, [("outcome", outcome)]);
        }
    }

    /// The eight `megadc_global_actions_total` instruments sit at
    /// `GLOBAL_ACTIONS_BASE + i` in `footprint::ALL_ACTIONS` order — the
    /// scrape indexes them arithmetically.
    #[test]
    fn global_action_instruments_follow_all_actions_order() {
        for (i, action) in ALL_ACTIONS.iter().enumerate() {
            let spec = &METRICS[ids::GLOBAL_ACTIONS_BASE + i];
            assert_eq!(spec.name, "megadc_global_actions_total");
            assert_eq!(spec.labels, [("action", action.name())]);
        }
    }

    /// Catalog hygiene: same-name specs are contiguous and agree on
    /// kind/help; every phase field names a declared epoch phase; every
    /// declared phase has at least one instrument; histogram specs have
    /// ascending non-empty buckets (and only histograms have buckets).
    #[test]
    fn catalog_is_well_formed() {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut last = "";
        for spec in METRICS {
            if spec.name != last {
                assert!(seen.insert(spec.name), "name {} not contiguous", spec.name);
                last = spec.name;
            } else {
                let prev = METRICS
                    .iter()
                    .find(|s| s.name == spec.name)
                    .expect("first spec");
                assert_eq!(prev.kind, spec.kind, "{} kind mismatch", spec.name);
                assert_eq!(prev.help, spec.help, "{} help mismatch", spec.name);
            }
            assert!(
                EPOCH_PHASES.iter().any(|p| p.id == spec.phase),
                "{} names unknown phase {}",
                spec.name,
                spec.phase
            );
            match spec.kind {
                MetricKind::Histogram => {
                    assert!(!spec.buckets.is_empty(), "{} has no buckets", spec.name);
                    assert!(
                        spec.buckets.windows(2).all(|w| w[0] < w[1]),
                        "{} buckets not ascending",
                        spec.name
                    );
                }
                _ => assert!(spec.buckets.is_empty(), "{} has buckets", spec.name),
            }
        }
        for phase in EPOCH_PHASES {
            assert!(
                METRICS.iter().any(|s| s.phase == phase.id),
                "phase {} has no instrument",
                phase.id
            );
        }
    }

    #[test]
    fn registry_basics() {
        let mut r = Registry::new();
        assert_eq!(r.len(), METRICS.len());
        assert!(!r.is_empty());
        r.add(ids::EPOCHS, 1);
        r.add(ids::EPOCHS, 2);
        assert_eq!(r.counter(ids::EPOCHS), 3);
        r.set_counter(ids::QUEUE_APPLIES, 10);
        r.set_counter(ids::QUEUE_APPLIES, 7); // monotone: never down
        assert_eq!(r.counter(ids::QUEUE_APPLIES), 10);
        r.set_gauge(ids::SERVED_FRACTION, 0.97);
        assert_eq!(r.gauge(ids::SERVED_FRACTION), 0.97);
        r.set_gauge(ids::SERVED_FRACTION, f64::NAN);
        assert_eq!(r.gauge(ids::SERVED_FRACTION), 0.0);
        // Kind/bounds mismatches are ignored, never panic.
        r.add(ids::SERVED_FRACTION, 1);
        r.set_gauge(ids::EPOCHS, 1.0);
        r.observe(ids::EPOCHS, 1.0);
        r.add(usize::MAX, 1);
        assert_eq!(r.counter(ids::EPOCHS), 3);
        assert_eq!(r.gauge(ids::SERVED_FRACTION), 0.0);
    }

    /// Histogram bucketing is a pure function of the observation
    /// multiset: permuting the observation order renders byte-identical.
    #[test]
    fn histogram_buckets_are_order_independent() {
        // Dyadic values: addition is exact, so the `_sum` line cannot
        // differ by summation order. (Real scrapes observe in one fixed
        // serial order at epoch close, so ordering never varies there.)
        let obs = [0.0625, 0.25, 0.25, 0.75, 0.875, 1.5, 1.0, f64::NAN];
        let mut a = Registry::new();
        for &v in &obs {
            a.observe(ids::LINK_UTIL, v);
        }
        let mut b = Registry::new();
        for &v in obs.iter().rev() {
            b.observe(ids::LINK_UTIL, v);
        }
        assert_eq!(a.render_text("x"), b.render_text("x"));
        assert_eq!(a.histogram_count(ids::LINK_UTIL), 7); // NaN dropped
    }

    #[test]
    fn text_render_is_prometheus_shaped_and_stable() {
        let mut r = Registry::new();
        r.stamp(42, 1_260_000_000);
        r.add(ids::GLOBAL_ACTIONS_BASE + 2, 5); // QueueRetire
        r.set_gauge(ids::LINK_UTIL_MAX, 0.75);
        r.observe(ids::LINK_UTIL, 0.2);
        r.observe(ids::LINK_UTIL, 0.8);
        let text = r.render_text("e17/test");
        assert!(text.starts_with("# run: e17/test\n# epoch: 42\n# t_us: 1260000000\n"));
        assert!(text.contains("# TYPE megadc_global_actions_total counter"));
        assert!(text.contains("megadc_global_actions_total{action=\"QueueRetire\"} 5"));
        assert!(text.contains("megadc_link_util_max 0.75"));
        assert!(text.contains("megadc_link_util_bucket{le=\"0.25\"} 1"));
        assert!(text.contains("megadc_link_util_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("megadc_link_util_sum 1"));
        assert!(text.contains("megadc_link_util_count 2"));
        // HELP/TYPE once per unique name, not per labeled instrument.
        assert_eq!(
            text.matches("# TYPE megadc_global_actions_total").count(),
            1
        );
        // Rendering is repeatable byte-for-byte.
        assert_eq!(text, r.render_text("e17/test"));
    }

    #[test]
    fn slo_tracker_scores_streaks_and_churn() {
        let mut t = SloTracker::default();
        let s1 = t.score_epoch(1.0, 3, 0);
        assert_eq!((s1.overload_epochs, s1.relief_epochs), (0, 1));
        assert_eq!(s1.reconfig_churn, 3);
        let s2 = t.score_epoch(0.95, 3, 1);
        assert_eq!((s2.overload_epochs, s2.relief_epochs), (1, 0));
        assert_eq!(s2.reconfig_churn, 0);
        assert_eq!(s2.flipflops, 1);
        let s3 = t.score_epoch(0.995, 7, 1);
        assert_eq!((s3.overload_epochs, s3.relief_epochs), (1, 1));
        assert_eq!(s3.reconfig_churn, 4);
    }
}
