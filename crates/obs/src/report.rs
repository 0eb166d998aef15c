//! `obs report` backend: render an epoch timeline, phase heat table and
//! SLO summary from a recorded run.
//!
//! Two sources feed it:
//! * an event log (`expt --events`): the `EpochHealth` roll-ups give a
//!   served-fraction timeline, per-phase *activity* heat (events
//!   emitted per phase, deterministic), and the `slo.*` score inputs;
//! * a scale-bench JSON (`BENCH_scale.json`): the E19 per-phase
//!   *wall-time* heat (`phase_s_per_epoch`) with critical-path
//!   attribution per tier.
//!
//! Activity heat is derived purely from the deterministic log; wall
//! heat is profiler output and lives only in bench artifacts.

use crate::explain::parse_log;
use crate::metrics::SLO_THRESHOLD;
use crate::phases::EPOCH_PHASES;
use crate::{json, ActionKind, Event};
use std::fmt::Write as _;

/// The epoch phase that emits events of the given serialized kind key
/// (`"(injected)"` for chaos-harness kinds, which no phase emits).
pub fn kind_phase(key: &str) -> &'static str {
    match ActionKind::parse(key) {
        Ok(ActionKind::Global(_)) => "global-knobs",
        Ok(ActionKind::PodPlan) => "pod-planning",
        Ok(ActionKind::InstanceStart) | Ok(ActionKind::SliceAdjust) => "plan-application",
        Ok(ActionKind::ProactiveReweight)
        | Ok(ActionKind::ProactiveDeploy)
        | Ok(ActionKind::ProactiveRetire) => "proactive-pass",
        Ok(ActionKind::QueueApply) => "queue-drain",
        Ok(ActionKind::EpochHealth) => "epoch-close",
        Ok(ActionKind::FaultInject) | Ok(ActionKind::LinkDegrade) | Err(_) => "(injected)",
    }
}

fn input(ev: &Event, key: &str) -> Option<f64> {
    ev.inputs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn served_bar(served: f64) -> String {
    let filled = (served.clamp(0.0, 1.0) * 20.0).round() as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(20 - filled))
}

fn render_run(label: &str, events: &[Event], out: &mut String) {
    let health: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == ActionKind::EpochHealth)
        .collect();
    if label.is_empty() {
        out.push_str("run:\n");
    } else {
        let _ = writeln!(out, "run: {label}");
    }
    if health.is_empty() {
        out.push_str("  (no EpochHealth events — nothing to report)\n");
        return;
    }

    // -- epoch timeline -------------------------------------------------
    let _ = writeln!(
        out,
        "  {:>6} {:>9} {:>8} {:<22} flags",
        "epoch", "t(s)", "served", ""
    );
    let mut served_min = f64::INFINITY;
    let mut served_sum = 0.0;
    let mut served_n = 0u64;
    let mut overload_fallback = 0u64;
    for ev in &health {
        let served = input(ev, "load.served_fraction").unwrap_or(0.0);
        served_min = served_min.min(served);
        served_sum += served;
        served_n += 1;
        let mut flags = String::new();
        if served < SLO_THRESHOLD {
            overload_fallback += 1;
            flags.push_str("OVERLOAD");
        }
        if input(ev, "count.FaultInject").unwrap_or(0.0) > 0.0
            || input(ev, "count.LinkDegrade").unwrap_or(0.0) > 0.0
        {
            if !flags.is_empty() {
                flags.push(' ');
            }
            flags.push_str("FAULT");
        }
        let _ = writeln!(
            out,
            "  {:>6} {:>9.1} {:>8.4} {:<22} {}",
            ev.epoch,
            ev.t_us as f64 / 1e6,
            served,
            served_bar(served),
            flags
        );
    }

    // -- phase activity heat --------------------------------------------
    let mut phase_counts: Vec<(&'static str, u64)> = EPOCH_PHASES
        .iter()
        .map(|p| (p.id, 0u64))
        .chain([("(injected)", 0u64)])
        .collect();
    for ev in &health {
        for (k, v) in &ev.inputs {
            if let Some(kind) = k.strip_prefix("count.") {
                let phase = kind_phase(kind);
                if let Some(slot) = phase_counts.iter_mut().find(|(id, _)| *id == phase) {
                    slot.1 += *v as u64;
                }
            }
        }
    }
    let total: u64 = phase_counts.iter().map(|&(_, n)| n).sum();
    let _ = writeln!(out, "  phase activity ({total} recorded events)");
    let _ = writeln!(out, "  {:<22} {:>8} {:>7}", "phase", "events", "share");
    for &(id, n) in &phase_counts {
        if id == "(injected)" && n == 0 {
            continue;
        }
        let share = if total > 0 {
            n as f64 / total as f64
        } else {
            0.0
        };
        let bar = "#".repeat((share * 40.0).round() as usize);
        let _ = writeln!(out, "  {:<22} {:>8} {:>6.1}% {}", id, n, share * 100.0, bar);
    }

    // -- SLO summary ----------------------------------------------------
    let last = health.last().copied();
    let overload = last
        .and_then(|ev| input(ev, "slo.overload_epochs"))
        .map(|v| v as u64)
        .unwrap_or(overload_fallback);
    let relief = last.and_then(|ev| input(ev, "slo.relief_epochs"));
    let flipflops = last.and_then(|ev| input(ev, "slo.flipflops"));
    let churn_total: f64 = health
        .iter()
        .filter_map(|ev| input(ev, "slo.reconfig_churn"))
        .sum();
    let _ = writeln!(out, "  slo summary (threshold {SLO_THRESHOLD})");
    let _ = writeln!(
        out,
        "    epochs: {}  served min: {:.4}  served mean: {:.4}",
        served_n,
        if served_n > 0 { served_min } else { 0.0 },
        if served_n > 0 {
            served_sum / served_n as f64
        } else {
            0.0
        }
    );
    let _ = writeln!(out, "    overload epochs: {overload}");
    if let Some(relief) = relief {
        let _ = writeln!(out, "    relief streak (final): {} epochs", relief as u64);
    }
    let _ = writeln!(out, "    reconfig churn (total): {}", churn_total as u64);
    if let Some(ff) = flipflops {
        let _ = writeln!(out, "    scale flip-flops: {}", ff as u64);
    }
}

/// Render the events-mode report (timeline + activity heat + SLO
/// summary) for every run in `text` whose label contains `run_filter`
/// (all runs when empty).
pub fn events_report(text: &str, run_filter: &str) -> Result<String, String> {
    let log = parse_log(text)?;
    let mut out = String::new();
    let mut matched = false;
    for (label, events) in &log.runs {
        if !run_filter.is_empty() && !label.contains(run_filter) {
            continue;
        }
        matched = true;
        render_run(label, events, &mut out);
        out.push('\n');
    }
    if !matched {
        out.push_str("no matching runs\n");
    }
    Ok(out)
}

/// Render the bench-mode report: per-tier phase wall-time heat with
/// critical-path attribution, from a `BENCH_scale.json` document.
pub fn bench_report(text: &str) -> Result<String, String> {
    let doc = json::parse(text)?;
    let tiers = doc
        .get("tiers")
        .and_then(json::Json::as_arr)
        .ok_or("bench document has no tiers array")?;
    let mut out = String::new();
    for tier in tiers {
        let label = tier
            .get("label")
            .and_then(json::Json::as_str)
            .unwrap_or("?");
        let apps = tier.get("apps").and_then(json::Json::as_u64).unwrap_or(0);
        let _ = writeln!(out, "tier: {label} ({apps} apps)");
        let Some(phases) = tier.get("phase_s_per_epoch").and_then(json::Json::as_obj) else {
            out.push_str("  (no phase_s_per_epoch — regenerate with a current expt build)\n\n");
            continue;
        };
        let total: f64 = phases.iter().map(|(_, v)| v.as_f64().unwrap_or(0.0)).sum();
        let _ = writeln!(
            out,
            "  phase wall-time per epoch ({total:.4} s/epoch measured)"
        );
        let _ = writeln!(out, "  {:<22} {:>12} {:>7}", "phase", "s/epoch", "share");
        let mut dominant: Option<(&str, f64)> = None;
        // Render in canonical phase order; unknown keys (schema drift)
        // follow in document order.
        let canonical = EPOCH_PHASES.iter().map(|p| p.id);
        let extras = phases
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| EPOCH_PHASES.iter().all(|p| p.id != *k));
        for id in canonical.chain(extras) {
            let Some(s) = phases
                .iter()
                .find(|(k, _)| k == id)
                .and_then(|(_, v)| v.as_f64())
            else {
                continue;
            };
            let share = if total > 0.0 { s / total } else { 0.0 };
            if dominant.map(|(_, best)| s > best).unwrap_or(true) {
                dominant = Some((id, s));
            }
            let bar = "#".repeat((share * 40.0).round() as usize);
            let _ = writeln!(
                out,
                "  {:<22} {:>12.6} {:>6.1}% {}",
                id,
                s,
                share * 100.0,
                bar
            );
        }
        if let Some((id, s)) = dominant {
            if total > 0.0 {
                let _ = writeln!(
                    out,
                    "  critical path: {id} ({:.1}% of measured controller time)",
                    s / total * 100.0
                );
            }
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::GlobalAction;
    use crate::{Actor, Recorder};
    use dcsim::SimTime;

    fn sample_log_text() -> String {
        let mut rec = Recorder::default();
        let mut text = String::from("{\"run\":\"e17/test\"}\n");
        for epoch in 0..3u64 {
            rec.begin_epoch(epoch, SimTime::from_secs(30 * epoch));
            rec.event(Actor::Global, ActionKind::Global(GlobalAction::Reweight))
                .vip(1)
                .commit();
            rec.event(Actor::Queue, ActionKind::QueueApply).commit();
            let served = if epoch == 1 { 0.95 } else { 1.0 };
            rec.emit_epoch_health(&[
                ("load.served_fraction", served),
                ("slo.overload_epochs", f64::from(epoch >= 1)),
                ("slo.relief_epochs", f64::from(epoch == 2)),
                ("slo.reconfig_churn", 2.0),
                ("slo.flipflops", 0.0),
            ]);
        }
        for ev in rec.take_events() {
            text.push_str(&ev.to_json_line());
            text.push('\n');
        }
        text
    }

    #[test]
    fn events_report_renders_timeline_heat_and_slo() {
        let report = events_report(&sample_log_text(), "").expect("renders");
        assert!(report.contains("run: e17/test"), "{report}");
        assert!(report.contains("OVERLOAD"), "{report}");
        assert!(report.contains("global-knobs"), "{report}");
        assert!(report.contains("queue-drain"), "{report}");
        assert!(report.contains("overload epochs: 1"), "{report}");
        assert!(report.contains("reconfig churn (total): 6"), "{report}");
        assert!(report.contains("relief streak (final): 1"), "{report}");
        // Run filtering.
        let none = events_report(&sample_log_text(), "e19").expect("renders");
        assert!(none.contains("no matching runs"));
    }

    #[test]
    fn kind_phase_covers_every_kind() {
        use crate::{FAULT_KINDS, STRUCTURAL_KINDS};
        for kind in crate::footprint::ALL_ACTIONS
            .into_iter()
            .map(ActionKind::Global)
            .chain(STRUCTURAL_KINDS)
        {
            let phase = kind_phase(kind.key());
            let declared = EPOCH_PHASES.iter().any(|p| p.id == phase);
            let injected = FAULT_KINDS.contains(&kind);
            assert!(declared != injected, "kind {} maps to {phase}", kind.key());
        }
        assert_eq!(kind_phase("NoSuchKind"), "(injected)");
    }

    #[test]
    fn bench_report_attributes_critical_path() {
        let doc = concat!(
            "{\"bench\":\"scale\",\"tiers\":[{\"label\":\"30k\",\"apps\":30000,",
            "\"phase_s_per_epoch\":{\"demand-route\":0.9,\"pod-planning\":0.05,",
            "\"demand-serve\":1.8}}]}"
        );
        let report = bench_report(doc).expect("renders");
        assert!(report.contains("tier: 30k"), "{report}");
        assert!(report.contains("critical path: demand-serve"), "{report}");
        assert!(report.contains("demand-route"), "{report}");
        // Tiers without phase columns degrade gracefully.
        let old = "{\"tiers\":[{\"label\":\"x\",\"apps\":1}]}";
        assert!(bench_report(old)
            .expect("renders")
            .contains("no phase_s_per_epoch"));
        assert!(bench_report("{}").is_err());
    }
}
