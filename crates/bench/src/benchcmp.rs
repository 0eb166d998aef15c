//! Bench-report comparison (the `benchcmp` CI gate, as a library).
//!
//! [`compare`] takes two parsed `BENCH_scale.json` documents and
//! produces a [`CompareReport`]: every measurement present on both
//! sides — the epoch wall time (`t1`), the platform build
//! (`build`), the demand route + serve stages (`demand`), and the
//! per-phase profiler columns (`phase:<id>`) — is checked against the
//! tolerance band, and every
//! key present on only one side is *named* in the report — a key
//! mismatch is never a panic and never a silent skip. Because the
//! per-phase columns ride the same row machinery, a regression report
//! names exactly which epoch phase slowed down.
//!
//! Build, phase and demand measurements below [`MIN_GATED_S`] are not
//! gated (not errors): sub-millisecond spans are dominated by timer
//! jitter and would gate on noise. A key below the floor on either side
//! is listed with both values; one present on one side only is skipped.
//! Above the floor they gate at
//! [`FINE_GRAINED_TOLERANCE_FACTOR`]× the wall tolerance — they are
//! sampled from far fewer runs than the whole-epoch walls (one build per
//! tier), so their run-to-run variance is higher.
//!
//! Schema problems (missing `tiers`, a tier without a `label`, an empty
//! or non-numeric `wall_per_epoch_s` map, duplicate keys) are `Err`s
//! that say which document and which tier is malformed, so a truncated
//! or hand-edited baseline fails loudly instead of gating nothing.
//!
//! Speed-ups must not change model output: a tier whose `served_final`
//! differs bit for bit from the baseline's same tier is an `Err` naming
//! the tier and both values (see [`check_served_final`]). Work counts
//! gate exactly, beside the noisy wall times: a tier whose
//! `pod_rounds_solved` rose above the baseline's is an `Err` too (see
//! [`check_pod_rounds_solved`]).

use obs::json::Json;
use std::fmt::Write as _;

/// Optional measurements (build, demand stages, per-phase spans) shorter than
/// this are not gated — relative tolerance on sub-millisecond spans
/// compares timer jitter, not controller cost.
pub const MIN_GATED_S: f64 = 1e-3;

/// Tolerance multiplier for the fine-grained optional columns
/// (`build`, `demand`, `phase:<id>`). Those are one build per tier or
/// means over a handful of epochs (the wall is their median), so a
/// single scheduler hiccup moves them far
/// more than the whole-epoch walls; gating them at the
/// wall tolerance makes the gate trip on host jitter between identical
/// binaries. Twice the band keeps real phase regressions (a slowed
/// algorithm is typically 2×+, not +20%) while absorbing the noise.
pub const FINE_GRAINED_TOLERANCE_FACTOR: f64 = 2.0;

/// `true` for the optional fine-grained columns (`build`, `demand`,
/// `phase:<id>`), which gate at the wider band and only above
/// [`MIN_GATED_S`].
fn is_fine_grained(key: &str) -> bool {
    key == "build" || key == "demand" || key.starts_with("phase:")
}

/// The tolerance band applied to one measurement key.
fn key_tolerance(key: &str, tolerance: f64) -> f64 {
    if is_fine_grained(key) {
        tolerance * FINE_GRAINED_TOLERANCE_FACTOR
    } else {
        tolerance
    }
}

/// `true` if `seconds` of `key` is long enough to gate.
fn gated(key: &str, seconds: f64) -> bool {
    !is_fine_grained(key) || seconds >= MIN_GATED_S
}

/// One `(tier, key)` measurement compared across both documents; the
/// key is `t1`, `build`, `demand` or `phase:<id>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub tier: String,
    pub key: String,
    pub baseline_s: f64,
    pub candidate_s: f64,
    /// `candidate / baseline - 1` (positive = slower).
    pub delta_frac: f64,
    pub regression: bool,
}

/// The outcome of comparing two bench documents.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    pub tolerance: f64,
    /// Measurements present on both sides, in baseline order.
    pub rows: Vec<Row>,
    /// `(tier, key)` pairs only the baseline has (e.g. a full run
    /// gating a `--quick` candidate).
    pub only_baseline: Vec<(String, String)>,
    /// `(tier, key)` pairs only the candidate has (e.g. a new tier
    /// not yet in the committed baseline).
    pub only_candidate: Vec<(String, String)>,
    /// `(tier, key, baseline s, candidate s)` of fine-grained keys both
    /// sides have but at least one holds below [`MIN_GATED_S`].
    pub below_floor: Vec<(String, String, f64, f64)>,
}

impl CompareReport {
    /// Number of measurements compared on both sides.
    pub fn compared(&self) -> usize {
        self.rows.len()
    }

    /// Number of compared measurements beyond the tolerance band.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regression).count()
    }

    /// True when at least one measurement overlapped and none regressed.
    pub fn passed(&self) -> bool {
        !self.rows.is_empty() && self.regressions() == 0
    }

    /// Render the per-measurement table plus the mismatch diff.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "benchcmp: tolerance +{:.0}% (+{:.0}% for build/demand/phase columns)",
            self.tolerance * 100.0,
            self.tolerance * FINE_GRAINED_TOLERANCE_FACTOR * 100.0
        );
        let _ = writeln!(
            out,
            "{:<8} {:<24} {:>12} {:>12} {:>9}  verdict",
            "tier", "measurement", "baseline s", "candidate s", "delta"
        );
        for r in &self.rows {
            let verdict = if r.regression { "REGRESSION" } else { "ok" };
            let _ = writeln!(
                out,
                "{:<8} {:<24} {:>12.4} {:>12.4} {:>+8.1}%  {verdict}",
                r.tier,
                r.key,
                r.baseline_s,
                r.candidate_s,
                r.delta_frac * 100.0
            );
        }
        for (tier, key, b, c) in &self.below_floor {
            let _ = writeln!(
                out,
                "{tier:<8} {key:<24} {b:>12.4} {c:>12.4}            below the {:.0} ms floor — not gated",
                MIN_GATED_S * 1e3
            );
        }
        for (tier, key) in &self.only_baseline {
            let _ = writeln!(
                out,
                "{tier:<8} {key:<24} only in baseline — not compared (candidate lacks this key)"
            );
        }
        for (tier, key) in &self.only_candidate {
            let _ = writeln!(
                out,
                "{tier:<8} {key:<24} only in candidate — not compared (baseline lacks this key)"
            );
        }
        let _ = writeln!(
            out,
            "benchcmp: {} compared, {} regressed, {} below floor, {} baseline-only, {} candidate-only",
            self.compared(),
            self.regressions(),
            self.below_floor.len(),
            self.only_baseline.len(),
            self.only_candidate.len()
        );
        out
    }
}

/// Extract the `(tier, measurement-key, seconds)` triples of one
/// document, validating the schema as it goes. Measurement keys are the
/// keys of `wall_per_epoch_s` (`"t1"`), `"build"` for
/// `build_s`, `"demand"` for `demand_s_per_epoch`, and `"phase:<id>"`
/// for each entry of `phase_s_per_epoch`; the latter three are optional
/// (older baselines predate them) and kept at any value, so [`compare`]
/// can report a key below [`MIN_GATED_S`] with both values. `side`
/// names the document in error messages (`"baseline"` / `"candidate"`).
pub fn extract(doc: &Json, side: &str) -> Result<Vec<(String, String, f64)>, String> {
    let Some(tiers) = doc.get("tiers") else {
        return Err(format!("{side}: no \"tiers\" key — not a bench document"));
    };
    let Some(tiers) = tiers.as_arr() else {
        return Err(format!("{side}: \"tiers\" is not an array"));
    };
    if tiers.is_empty() {
        return Err(format!("{side}: \"tiers\" is empty — nothing to compare"));
    }
    let mut out: Vec<(String, String, f64)> = Vec::new();
    for (i, tier) in tiers.iter().enumerate() {
        let Some(label) = tier.get("label").and_then(|l| l.as_str()) else {
            return Err(format!("{side}: tiers[{i}] has no string \"label\""));
        };
        let Some(wall) = tier.get("wall_per_epoch_s").and_then(|w| w.as_obj()) else {
            return Err(format!(
                "{side}: tier {label:?} has no \"wall_per_epoch_s\" object"
            ));
        };
        if wall.is_empty() {
            return Err(format!(
                "{side}: tier {label:?} has an empty \"wall_per_epoch_s\" map"
            ));
        }
        for (key, val) in wall {
            let Some(s) = val.as_f64() else {
                return Err(format!(
                    "{side}: tier {label:?} wall_per_epoch_s[{key:?}] is not a number"
                ));
            };
            if !s.is_finite() || s <= 0.0 {
                return Err(format!(
                    "{side}: tier {label:?} wall_per_epoch_s[{key:?}] = {s} is not a \
                     positive finite wall time"
                ));
            }
            if out.iter().any(|(l, k, _)| l == label && k == key) {
                return Err(format!(
                    "{side}: duplicate measurement (tier {label:?}, key {key:?})"
                ));
            }
            out.push((label.to_string(), key.clone(), s));
        }
        // Optional measurements (absent in pre-profiler baselines; a
        // one-sided key is reported by `compare`, never an error).
        let mut push_optional = |key: String, val: &Json| -> Result<(), String> {
            let Some(s) = val.as_f64() else {
                return Err(format!(
                    "{side}: tier {label:?} measurement {key:?} is not a number"
                ));
            };
            if !s.is_finite() || s < 0.0 {
                return Err(format!(
                    "{side}: tier {label:?} measurement {key:?} = {s} is not a \
                     non-negative finite wall time"
                ));
            }
            if !out.iter().any(|(l, k, _)| l == label && *k == key) {
                out.push((label.to_string(), key, s));
            }
            Ok(())
        };
        if let Some(build) = tier.get("build_s") {
            push_optional("build".to_string(), build)?;
        }
        if let Some(demand) = tier.get("demand_s_per_epoch") {
            push_optional("demand".to_string(), demand)?;
        }
        if let Some(phases) = tier.get("phase_s_per_epoch") {
            let Some(phases) = phases.as_obj() else {
                return Err(format!(
                    "{side}: tier {label:?} \"phase_s_per_epoch\" is not an object"
                ));
            };
            for (id, val) in phases {
                push_optional(format!("phase:{id}"), val)?;
            }
        }
    }
    Ok(out)
}

/// The `(label, value)` of every tier that records `key`. Call after
/// [`extract`] has validated the tier labels.
fn tier_values(doc: &Json, side: &str, key: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for tier in doc
        .get("tiers")
        .and_then(|t| t.as_arr())
        .unwrap_or_default()
    {
        let (Some(label), Some(val)) = (tier.get("label").and_then(|l| l.as_str()), tier.get(key))
        else {
            continue;
        };
        let Some(v) = val.as_f64() else {
            return Err(format!("{side}: tier {label:?} \"{key}\" is not a number"));
        };
        out.push((label.to_string(), v));
    }
    Ok(out)
}

/// The `(label, baseline, candidate)` of every tier that records `key`
/// on both sides.
fn paired(baseline: &Json, candidate: &Json, key: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let cand = tier_values(candidate, "candidate", key)?;
    let base = tier_values(baseline, "baseline", key)?;
    Ok(base
        .into_iter()
        .filter_map(|(label, b)| {
            let &(_, c) = cand.iter().find(|(l, _)| *l == label)?;
            Some((label, b, c))
        })
        .collect())
}

/// The model-output gate: every tier present on both sides with a
/// `served_final` must carry the same f64 bits. A wall-time win that
/// changes what the simulator computes is a different model, not a
/// speed-up. Tiers lacking the field on either side are not checked.
pub fn check_served_final(baseline: &Json, candidate: &Json) -> Result<(), String> {
    for (label, b, c) in paired(baseline, candidate, "served_final")? {
        if b.to_bits() != c.to_bits() {
            return Err(format!(
                "tier {label:?} served_final changed: baseline {b:?}, candidate {c:?} \
                 — model output must stay bit-identical"
            ));
        }
    }
    Ok(())
}

/// The work-count gate: a tier's `pod_rounds_solved` (timed pod rounds
/// that ran the Tang controller instead of reusing the last plan) is a
/// function of sim state, so it is compared exactly and no host noise
/// can move it. A tier whose count rose fails, named with both counts;
/// a fall is more reuse and passes. Tiers lacking the field on either
/// side are not checked.
pub fn check_pod_rounds_solved(baseline: &Json, candidate: &Json) -> Result<(), String> {
    for (label, b, c) in paired(baseline, candidate, "pod_rounds_solved")? {
        if c > b {
            return Err(format!(
                "tier {label:?} pod_rounds_solved rose: baseline {b}, candidate {c} \
                 — pod rounds that saw the same inputs must reuse their plan"
            ));
        }
    }
    Ok(())
}

/// Compare two parsed bench documents. `Err` means a malformed document,
/// a changed `served_final`, a risen `pod_rounds_solved`, or zero overlapping measurements (the diff
/// is spelled out in the message); `Ok` carries the per-measurement
/// verdicts and the one-sided keys.
pub fn compare(baseline: &Json, candidate: &Json, tolerance: f64) -> Result<CompareReport, String> {
    compare_median(baseline, std::slice::from_ref(candidate), tolerance)
}

/// [`compare`] against several candidate runs of one binary: each
/// measurement gates on its median across the candidates that record it,
/// so one run slowed by host noise cannot fail the gate. The model-output
/// and work-count checks ([`check_served_final`],
/// [`check_pod_rounds_solved`]) apply to *every* candidate, not to the
/// median: those are deterministic, and one bad run is a real failure.
pub fn compare_median(
    baseline: &Json,
    candidates: &[Json],
    tolerance: f64,
) -> Result<CompareReport, String> {
    let base = extract(baseline, "baseline")?;
    let mut runs = Vec::with_capacity(candidates.len());
    for (i, candidate) in candidates.iter().enumerate() {
        let side = match candidates.len() {
            1 => "candidate".to_string(),
            _ => format!("candidate {}", i + 1),
        };
        runs.push(extract(candidate, &side)?);
        check_served_final(baseline, candidate)
            .and_then(|()| check_pod_rounds_solved(baseline, candidate))
            .map_err(|e| match candidates.len() {
                1 => e,
                _ => format!("{side}: {e}"),
            })?;
    }
    if runs.is_empty() {
        return Err("no candidate document to compare".to_string());
    }
    let cand = medians(&runs);
    let mut rows = Vec::new();
    let mut only_baseline = Vec::new();
    let mut below_floor = Vec::new();
    for (tier, key, b) in &base {
        match cand.iter().find(|(t, k, _)| t == tier && k == key) {
            Some((_, _, c)) if gated(key, *b) && gated(key, *c) => rows.push(Row {
                tier: tier.clone(),
                key: key.clone(),
                baseline_s: *b,
                candidate_s: *c,
                delta_frac: c / b - 1.0,
                regression: *c > b * (1.0 + key_tolerance(key, tolerance)),
            }),
            Some((_, _, c)) => below_floor.push((tier.clone(), key.clone(), *b, *c)),
            None if gated(key, *b) => only_baseline.push((tier.clone(), key.clone())),
            None => {}
        }
    }
    let only_candidate: Vec<(String, String)> = cand
        .iter()
        .filter(|(t, k, c)| gated(k, *c) && !base.iter().any(|(bt, bk, _)| bt == t && bk == k))
        .map(|(t, k, _)| (t.clone(), k.clone()))
        .collect();
    if rows.is_empty() {
        let fmt = |keys: &[(String, String)]| {
            keys.iter()
                .map(|(t, k)| format!("({t}, {k})"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        return Err(format!(
            "no overlapping (tier, key) measurements — baseline has [{}], \
             candidate has [{}]; did the tier labels or keys change?",
            fmt(&only_baseline),
            fmt(&only_candidate)
        ));
    }
    Ok(CompareReport {
        tolerance,
        rows,
        only_baseline,
        only_candidate,
        below_floor,
    })
}

/// The per-measurement median of several extracted runs: every `(tier,
/// key)` any run records, in first-seen order, with the median of the
/// values the runs that record it hold (the mean of the middle two for
/// an even count).
fn medians(runs: &[Vec<(String, String, f64)>]) -> Vec<(String, String, f64)> {
    let mut out: Vec<(String, String, f64)> = Vec::new();
    for (tier, key, _) in runs.iter().flatten() {
        if out.iter().any(|(t, k, _)| t == tier && k == key) {
            continue;
        }
        let mut values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.iter().find(|(t, k, _)| t == tier && k == key))
            .map(|&(_, _, v)| v)
            .collect();
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        let median = if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        };
        out.push((tier.clone(), key.clone(), median));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> Json {
        obs::json::parse(body).expect("test doc parses")
    }

    fn bench(tiers: &str) -> Json {
        doc(&format!("{{\"bench\":\"scale\",\"tiers\":[{tiers}]}}"))
    }

    #[test]
    fn within_tolerance_passes_and_counts() {
        let b = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0,"t4":0.5}}"#);
        let c = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.05,"t4":0.52}}"#);
        let rep = compare(&b, &c, 0.15).expect("comparable");
        assert_eq!(rep.compared(), 2);
        assert_eq!(rep.regressions(), 0);
        assert!(rep.passed());
        assert!(rep.only_baseline.is_empty() && rep.only_candidate.is_empty());
    }

    #[test]
    fn regression_beyond_band_is_flagged_not_fatal() {
        let b = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}}"#);
        let c = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.30}}"#);
        let rep = compare(&b, &c, 0.15).expect("comparable");
        assert_eq!(rep.regressions(), 1);
        assert!(!rep.passed());
        assert!(rep.render().contains("REGRESSION"));
    }

    #[test]
    fn one_sided_keys_are_reported_never_silently_skipped() {
        let b = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}},
               {"label":"100k","wall_per_epoch_s":{"t1":4.0}}"#,
        );
        let c = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0,"t8":0.3}}"#);
        let rep = compare(&b, &c, 0.15).expect("comparable");
        assert_eq!(rep.compared(), 1);
        assert_eq!(rep.only_baseline, vec![("100k".into(), "t1".into())]);
        assert_eq!(rep.only_candidate, vec![("30k".into(), "t8".into())]);
        let rendered = rep.render();
        assert!(rendered.contains("only in baseline"));
        assert!(rendered.contains("only in candidate"));
    }

    #[test]
    fn zero_overlap_is_an_error_naming_both_key_sets() {
        let b = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}}"#);
        let c = bench(r#"{"label":"small","wall_per_epoch_s":{"threads1":1.0}}"#);
        let err = compare(&b, &c, 0.15).expect_err("no overlap");
        assert!(err.contains("(30k, t1)"), "{err}");
        assert!(err.contains("(small, threads1)"), "{err}");
        assert!(err.contains("did the tier labels or keys change?"));
    }

    #[test]
    fn schema_violations_name_the_document_and_tier() {
        let missing_tiers = doc(r#"{"bench":"scale"}"#);
        let ok = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}}"#);
        let err = compare(&missing_tiers, &ok, 0.15).expect_err("schema");
        assert!(err.contains("baseline") && err.contains("tiers"), "{err}");

        let unlabeled = bench(r#"{"wall_per_epoch_s":{"t1":1.0}}"#);
        let err = compare(&ok, &unlabeled, 0.15).expect_err("schema");
        assert!(err.contains("candidate") && err.contains("label"), "{err}");

        let empty_wall = bench(r#"{"label":"30k","wall_per_epoch_s":{}}"#);
        let err = compare(&empty_wall, &ok, 0.15).expect_err("schema");
        assert!(err.contains("empty"), "{err}");

        let bad_value = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":-2.0}}"#);
        let err = compare(&ok, &bad_value, 0.15).expect_err("schema");
        assert!(err.contains("positive finite"), "{err}");

        let non_number = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":"fast"}}"#);
        let err = compare(&ok, &non_number, 0.15).expect_err("schema");
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn phase_and_demand_columns_are_gated_and_name_the_phase() {
        let b = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},
                "demand_s_per_epoch":0.10,
                "phase_s_per_epoch":{"pod-planning":0.50,"demand-serve":0.50,
                                     "queue-drain":0.002}}"#,
        );
        let c = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},
                "demand_s_per_epoch":0.11,
                "phase_s_per_epoch":{"pod-planning":0.90,"demand-serve":0.62,
                                     "queue-drain":0.002}}"#,
        );
        let rep = compare(&b, &c, 0.15).expect("comparable");
        let regressed: Vec<&str> = rep
            .rows
            .iter()
            .filter(|r| r.regression)
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(
            regressed,
            vec!["phase:pod-planning"],
            "exactly the slowed phase must be named; +24% on demand-serve \
             is inside the widened fine-grained band"
        );
        assert!(
            rep.rows.iter().any(|r| r.key == "demand" && !r.regression),
            "demand_s_per_epoch within tolerance must compare clean"
        );
        assert!(rep.render().contains("phase:pod-planning"));
    }

    #[test]
    fn build_time_is_gated_at_the_fine_grained_band() {
        let b = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"build_s":0.10}"#);
        // +25% is inside the widened band.
        let c = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"build_s":0.125}"#);
        let rep = compare(&b, &c, 0.15).expect("comparable");
        assert!(rep.passed(), "{}", rep.render());
        assert!(rep.rows.iter().any(|r| r.key == "build"));
        // A superlinear build (+3x) fails and is named.
        let c = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"build_s":0.30}"#);
        let rep = compare(&b, &c, 0.15).expect("comparable");
        let regressed: Vec<&str> = rep
            .rows
            .iter()
            .filter(|r| r.regression)
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(regressed, vec!["build"]);
        assert!(rep.render().contains("build"));
        // A non-numeric build time is a schema error naming the key.
        let bad = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"build_s":"slow"}"#);
        let err = compare(&b, &bad, 0.15).expect_err("schema");
        assert!(err.contains("\"build\""), "{err}");
    }

    #[test]
    fn sub_floor_and_missing_optional_measurements_do_not_gate() {
        // Baseline predates the profiler columns entirely; candidate has
        // them but every span is under the noise floor.
        let b = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}}"#);
        let c = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},
                "demand_s_per_epoch":0.0005,
                "phase_s_per_epoch":{"rip-bind":0.0001}}"#,
        );
        let rep = compare(&b, &c, 0.15).expect("comparable");
        assert!(rep.passed());
        assert!(
            rep.only_candidate.is_empty(),
            "sub-floor spans must be skipped, not surfaced as one-sided keys"
        );
        // A non-numeric phase value is still a loud schema error.
        let bad = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},
                "phase_s_per_epoch":{"rip-bind":"fast"}}"#,
        );
        let err = compare(&b, &bad, 0.15).expect_err("schema");
        assert!(err.contains("phase:rip-bind"), "{err}");
    }

    #[test]
    fn a_pair_below_the_floor_is_reported_with_both_values() {
        let b = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},
                "phase_s_per_epoch":{"demand-switch-reset":0.0063,"epoch-close":0.0004,
                                     "queue-drain":0.0002}}"#,
        );
        let c = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},
                "phase_s_per_epoch":{"demand-switch-reset":0.0011,"epoch-close":0.0012,
                                     "queue-drain":0.0003}}"#,
        );
        let rep = compare(&b, &c, 0.15).expect("comparable");
        // Gated exactly as before: the pair with both sides at or above
        // the floor, and the walls.
        let gated: Vec<&str> = rep.rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(gated, vec!["t1", "phase:demand-switch-reset"]);
        assert!(rep.passed());
        assert!(rep.only_baseline.is_empty() && rep.only_candidate.is_empty());
        assert_eq!(
            rep.below_floor,
            vec![
                ("30k".into(), "phase:epoch-close".into(), 0.0004, 0.0012),
                ("30k".into(), "phase:queue-drain".into(), 0.0002, 0.0003),
            ]
        );
        let rendered = rep.render();
        assert!(!rendered.contains("lacks this key"), "{rendered}");
        let line = rendered
            .lines()
            .find(|l| l.contains("phase:epoch-close"))
            .expect("named");
        assert!(
            line.contains("0.0004")
                && line.contains("0.0012")
                && line.contains("below the 1 ms floor"),
            "{line}"
        );
    }

    #[test]
    fn served_final_must_keep_its_bits() {
        let b = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"served_final":0.8908731288551586},
               {"label":"100k","wall_per_epoch_s":{"t1":4.0},"served_final":0.5}"#,
        );
        // Same bits (and a faster wall) passes.
        let same = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":0.5},"served_final":0.8908731288551586}"#,
        );
        assert!(compare(&b, &same, 0.15).expect("comparable").passed());
        // One ulp off is a model change, named with the tier and both values.
        let moved = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":0.5},"served_final":0.8908731288551587}"#,
        );
        let err = compare(&b, &moved, 0.15).expect_err("output changed");
        assert!(
            err.contains("\"30k\"") && err.contains("served_final"),
            "{err}"
        );
        assert!(err.contains("0.8908731288551586"), "{err}");
        assert!(err.contains("0.8908731288551587"), "{err}");
        // A tier missing the field on one side is not checked.
        let absent = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}}"#);
        assert!(compare(&b, &absent, 0.15).is_ok());
        let bad = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"served_final":"x"}"#);
        let err = compare(&b, &bad, 0.15).expect_err("schema");
        assert!(
            err.contains("candidate") && err.contains("served_final"),
            "{err}"
        );
    }

    #[test]
    fn a_risen_solved_round_count_fails_and_names_the_tier() {
        let b = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"pod_rounds_solved":60},
               {"label":"30k-mix","wall_per_epoch_s":{"t1":4.0},"pod_rounds_solved":200}"#,
        );
        // Equal or fewer solved rounds pass, whatever the walls do.
        let fewer = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.1},"pod_rounds_solved":60},
               {"label":"30k-mix","wall_per_epoch_s":{"t1":4.0},"pod_rounds_solved":150}"#,
        );
        assert!(compare(&b, &fewer, 0.15).expect("comparable").passed());
        let more = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":0.5},"pod_rounds_solved":60},
               {"label":"30k-mix","wall_per_epoch_s":{"t1":2.0},"pod_rounds_solved":201}"#,
        );
        let err = compare(&b, &more, 0.15).expect_err("count rose");
        assert!(
            err.contains("\"30k-mix\"") && err.contains("pod_rounds_solved"),
            "{err}"
        );
        assert!(err.contains("200") && err.contains("201"), "{err}");
        // A tier missing the field on one side is not checked.
        let absent = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}}"#);
        assert!(compare(&b, &absent, 0.15).is_ok());
    }

    #[test]
    fn duplicate_tier_thread_keys_are_rejected() {
        let dup = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}},
               {"label":"30k","wall_per_epoch_s":{"t1":1.1}}"#,
        );
        let ok = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0}}"#);
        let err = compare(&dup, &ok, 0.15).expect_err("duplicate");
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn several_candidates_gate_on_their_median() {
        let b = bench(r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"build_s":2.0}"#);
        let run = |t1: f64, build: f64| {
            bench(&format!(
                r#"{{"label":"30k","wall_per_epoch_s":{{"t1":{t1}}},"build_s":{build}}}"#
            ))
        };
        // One noisy run (t1 +60%) among three: the median passes.
        let runs = [run(1.6, 2.1), run(1.05, 2.0), run(0.98, 5.0)];
        let rep = compare_median(&b, &runs, 0.15).expect("comparable");
        assert!(rep.passed(), "{}", rep.render());
        let t1 = rep.rows.iter().find(|r| r.key == "t1").unwrap();
        assert_eq!(t1.candidate_s, 1.05);
        let build = rep.rows.iter().find(|r| r.key == "build").unwrap();
        assert_eq!(build.candidate_s, 2.1);
        // Two slow runs of three make a slow median.
        let runs = [run(1.6, 2.0), run(1.3, 2.0), run(0.98, 2.0)];
        let rep = compare_median(&b, &runs, 0.15).expect("comparable");
        assert_eq!(rep.regressions(), 1, "{}", rep.render());
        // An even count takes the mean of the middle two.
        let runs = [run(1.0, 2.0), run(1.2, 2.0)];
        let rep = compare_median(&b, &runs, 0.15).expect("comparable");
        assert!((rep.rows[0].candidate_s - 1.1).abs() < 1e-12);
        // One candidate is `compare`.
        let one = [run(1.3, 2.0)];
        assert_eq!(compare_median(&b, &one, 0.15), compare(&b, &one[0], 0.15));
        assert!(compare_median(&b, &[], 0.15).is_err());
    }

    #[test]
    fn one_bad_count_among_candidates_fails() {
        let b = bench(
            r#"{"label":"30k","wall_per_epoch_s":{"t1":1.0},"served_final":0.5,"pod_rounds_solved":4}"#,
        );
        let run = |served: &str, solved: u32| {
            bench(&format!(
                r#"{{"label":"30k","wall_per_epoch_s":{{"t1":1.0}},"served_final":{served},"pod_rounds_solved":{solved}}}"#
            ))
        };
        let good = || run("0.5", 4);
        assert!(compare_median(&b, &[good(), good(), good()], 0.15).is_ok());
        let err = compare_median(&b, &[good(), run("0.5", 5), good()], 0.15).unwrap_err();
        assert!(
            err.starts_with("candidate 2:") && err.contains("pod_rounds_solved"),
            "{err}"
        );
        let err = compare_median(&b, &[good(), good(), run("0.5000000001", 4)], 0.15).unwrap_err();
        assert!(
            err.starts_with("candidate 3:") && err.contains("served_final"),
            "{err}"
        );
    }
}
