//! # analyze — workspace determinism linter + knob-action conflict checker
//!
//! `cargo run -p analyze -- --deny` is the CI gate that machine-verifies
//! the two conventions the repo's reproducibility and the paper's §III.C
//! safety argument rest on:
//!
//! * **Pass 1 (lint, [`lint`])** — token-level scan of `crates/*/src`
//!   for hazard classes that silently break bit-identical reruns or
//!   panic control paths: hash containers, direct float-literal
//!   equality, `unwrap()`/`expect()`/`panic!` in control-plane crates
//!   (ratcheted), raw threads in control-plane crates, wall-clock
//!   reads, missing `#![forbid(unsafe_code)]`, undocumented
//!   `PlatformConfig`/`KnobFlags` fields, and public items that no
//!   non-test code names (`dead-pub`).
//! * **Pass 2 (conflicts, [`conflict`])** — computes the pairwise
//!   read/write conflict matrix of the global-manager actions from the
//!   declarations in [`megadc::footprint`] and asserts every conflicting
//!   pair is ordered by the serialized VIP/RIP queue or explicitly
//!   guarded. The generated matrix is embedded in DESIGN.md and kept in
//!   sync by the same gate.
//! * **Pass 3 (phases, [`phase`])** — checks the epoch-phase effect
//!   declarations in [`megadc::phases`] for duplicate ids and keeps the
//!   generated phase effects matrix in DESIGN.md in sync.
//!
//! See DESIGN.md §"Static analysis & conflict matrix" for the allowlist
//! and ratchet workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod conflict;
pub mod lint;
pub mod phase;
pub mod source;

use allowlist::Allowlist;
use lint::Finding;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Marker opening the generated conflict-matrix block in DESIGN.md.
pub const MATRIX_BEGIN: &str =
    "<!-- BEGIN GENERATED conflict-matrix (edit crates/obs/src/footprint.rs, then run `cargo run -p analyze -- --write`) -->";
/// Marker closing the generated conflict-matrix block in DESIGN.md.
pub const MATRIX_END: &str = "<!-- END GENERATED conflict-matrix -->";
/// Marker opening the generated phase-effects-matrix block in DESIGN.md.
pub const PHASES_BEGIN: &str =
    "<!-- BEGIN GENERATED phase-effects-matrix (edit crates/obs/src/phases.rs, then run `cargo run -p analyze -- --write`) -->";
/// Marker closing the generated phase-effects-matrix block in DESIGN.md.
pub const PHASES_END: &str = "<!-- END GENERATED phase-effects-matrix -->";

/// Everything one analysis run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard failures (non-empty fails `--deny`).
    pub errors: Vec<String>,
    /// Ratchet-improvement and stale-allowlist notes (never fatal).
    pub warnings: Vec<String>,
}

impl Report {
    /// True when the run found nothing fatal.
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Run every pass over the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> Report {
    let mut report = Report::default();

    // ---- allowlist -----------------------------------------------------
    let allow_path = root.join("crates/analyze/allowlist.txt");
    let allowlist = match fs::read_to_string(&allow_path) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(al) => al,
            Err(e) => {
                report.errors.push(format!("[allowlist] {e}"));
                Allowlist::default()
            }
        },
        Err(_) => {
            report.warnings.push(format!(
                "[allowlist] {} not found; running with an empty allowlist",
                allow_path.display()
            ));
            Allowlist::default()
        }
    };

    // ---- pass 1: lint ----------------------------------------------------
    let mut findings = lint::lint_sources(root);
    let config_path = root.join("crates/core/src/config.rs");
    let design_path = root.join("DESIGN.md");
    match (
        fs::read_to_string(&config_path),
        fs::read_to_string(&design_path),
    ) {
        (Ok(cfg), Ok(design)) => {
            findings.extend(lint::lint_knob_docs(&cfg, &design));
            findings.extend(lint::lint_metric_docs(&design));
        }
        _ => report.errors.push(format!(
            "[knob-doc] cannot read {} or {}",
            config_path.display(),
            design_path.display()
        )),
    }
    findings.extend(lint::lint_emit_coverage(root));
    apply_allowlist(&findings, &allowlist, &mut report);

    // ---- pass 2: conflicts -------------------------------------------------
    report.errors.extend(conflict::production_check());

    // ---- pass 3: phases ------------------------------------------------------
    report.errors.extend(phase::production_check());

    // ---- generated block sync ------------------------------------------------
    match fs::read_to_string(&design_path) {
        Ok(design) => {
            for (label, begin, end, generated) in [
                (
                    "conflict-matrix",
                    MATRIX_BEGIN,
                    MATRIX_END,
                    conflict::production_matrix(),
                ),
                (
                    "phase-effects-matrix",
                    PHASES_BEGIN,
                    PHASES_END,
                    phase::production_matrix(),
                ),
            ] {
                match extract_block_between(&design, begin, end) {
                    Some(embedded) if embedded.trim() == generated.trim() => {}
                    Some(_) => report.errors.push(format!(
                        "[{label}] the generated block in DESIGN.md is stale; run \
                         `cargo run -p analyze -- --write`"
                    )),
                    None => report.errors.push(format!(
                        "[{label}] DESIGN.md does not contain the generated block \
                         ({begin} … {end}); run `cargo run -p analyze -- --write`"
                    )),
                }
            }
        }
        Err(e) => report
            .errors
            .push(format!("[conflict-matrix] cannot read DESIGN.md: {e}")),
    }

    report
}

/// Suppress vetted findings, enforce the per-crate panicking ratchet and
/// the per-file allow counts, and convert the rest to errors.
fn apply_allowlist(findings: &[Finding], allowlist: &Allowlist, report: &mut Report) {
    // panicking: counted per crate against the ratchet baseline.
    let mut panicking_per_crate: BTreeMap<String, Vec<&Finding>> = BTreeMap::new();
    // everything else: counted per (rule, file) against allow entries.
    let mut per_rule_file: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        if f.rule == "panicking" {
            panicking_per_crate
                .entry(f.krate.clone())
                .or_default()
                .push(f);
        } else {
            per_rule_file
                .entry((f.rule.to_string(), f.file.clone()))
                .or_default()
                .push(f);
        }
    }

    for (krate, fs) in &panicking_per_crate {
        let baseline = allowlist.ratchets.get(krate).copied().unwrap_or(0);
        match fs.len() {
            n if n > baseline => {
                report.errors.push(format!(
                    "[panicking] crate `{krate}` has {n} panicking call sites in non-test \
                     control-plane code, above the ratchet baseline of {baseline} — the \
                     count may only go down (crates/analyze/allowlist.txt)"
                ));
                for f in fs.iter().take(8) {
                    report.errors.push(format!("  {f}"));
                }
                if fs.len() > 8 {
                    report.errors.push(format!("  … and {} more", fs.len() - 8));
                }
            }
            n if n < baseline => report.warnings.push(format!(
                "[panicking] crate `{krate}` is at {n}, below the ratchet baseline of \
                 {baseline} — lower the baseline in crates/analyze/allowlist.txt to lock \
                 in the improvement"
            )),
            _ => {}
        }
    }
    // A ratchet entry for a crate with zero findings is a stale
    // suppression: it would silently absorb future regressions. Hard
    // error (run `analyze --write` to zero it automatically).
    for (krate, &baseline) in &allowlist.ratchets {
        if baseline > 0 && !panicking_per_crate.contains_key(krate) {
            report.errors.push(format!(
                "[panicking] crate `{krate}` has no findings but a ratchet baseline of \
                 {baseline}; stale suppressions rot — run `cargo run -p analyze -- \
                 --write` to zero it"
            ));
        }
    }

    for ((rule, file), fs) in &per_rule_file {
        let allowed = allowlist
            .allows
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if fs.len() > allowed {
            for f in fs {
                report.errors.push(f.to_string());
            }
            if allowed > 0 {
                report.errors.push(format!(
                    "[{rule}] {file}: {} findings exceed the {allowed} allowed",
                    fs.len()
                ));
            }
        } else if fs.len() < allowed {
            report.warnings.push(format!(
                "[{rule}] {file}: allowlist permits {allowed} but only {} remain; \
                 lower the count",
                fs.len()
            ));
        }
    }
    // Allow entries pointing at clean files are stale suppressions:
    // hard error (run `analyze --write` to drop them automatically).
    for ((rule, file), &allowed) in &allowlist.allows {
        if allowed > 0 && !per_rule_file.contains_key(&(rule.clone(), file.clone())) {
            report.errors.push(format!(
                "[{rule}] {file}: allowlist permits {allowed} but the file is clean; \
                 stale suppressions rot — run `cargo run -p analyze -- --write` to \
                 drop the entry"
            ));
        }
    }
}

/// Satellite of the ratchet workflow: rewrite `allowlist.txt` so every
/// count matches what was actually measured, *downward only* — an
/// `analyze --write` locks improvements in instead of leaving "lower the
/// baseline" warnings to rot. Comments, blank lines and entry order are
/// preserved; entries whose measured count is zero are dropped. Counts
/// are never raised (a regression still needs a deliberate hand edit).
pub fn ratchet_allowlist_down(text: &str, findings: &[Finding]) -> String {
    let mut panicking_per_crate: BTreeMap<&str, usize> = BTreeMap::new();
    let mut per_rule_file: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for f in findings {
        if f.rule == "panicking" {
            *panicking_per_crate.entry(f.krate.as_str()).or_default() += 1;
        } else {
            *per_rule_file.entry((f.rule, f.file.as_str())).or_default() += 1;
        }
    }
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let body = line.split('#').next().unwrap_or("").trim();
        let parts: Vec<&str> = body.split_whitespace().collect();
        let rewritten = match parts.as_slice() {
            ["ratchet", "panicking", krate, count] => {
                let measured = panicking_per_crate.get(krate).copied().unwrap_or(0);
                let baseline: usize = count.parse().unwrap_or(0);
                let new = baseline.min(measured);
                (new != baseline).then(|| format!("ratchet panicking {krate} {new}"))
            }
            ["allow", rule, file, count] => {
                let measured = per_rule_file.get(&(rule, file)).copied().unwrap_or(0);
                let allowed: usize = count.parse().unwrap_or(0);
                let new = allowed.min(measured);
                if new == 0 {
                    continue; // clean file: drop the stale entry entirely
                }
                (new != allowed).then(|| format!("allow {rule} {file} {new}"))
            }
            _ => None,
        };
        match rewritten {
            Some(l) => out.push_str(&l),
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Extract a generated block (exclusive of its markers) from DESIGN.md.
pub fn extract_block_between<'a>(design: &'a str, begin: &str, end: &str) -> Option<&'a str> {
    let start = design.find(begin)? + begin.len();
    let stop = design[start..].find(end)? + start;
    Some(&design[start..stop])
}

/// Replace (or append) a generated block in DESIGN.md; returns the new
/// file contents.
pub fn splice_block_between(design: &str, begin: &str, end: &str, generated: &str) -> String {
    let block = format!("{begin}\n\n{generated}\n{end}");
    match (design.find(begin), design.find(end)) {
        (Some(s), Some(e)) if e > s => {
            let mut out = String::with_capacity(design.len() + generated.len());
            out.push_str(&design[..s]);
            out.push_str(&block);
            out.push_str(&design[e + end.len()..]);
            out
        }
        _ => format!("{design}\n{block}\n"),
    }
}

/// The workspace root this crate was built in (two levels above the
/// manifest) — the default for the binary and the integration tests.
pub fn default_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_roundtrips() {
        let design = "# Doc\n\nbody\n";
        let v1 = splice_block_between(design, MATRIX_BEGIN, MATRIX_END, "MATRIX v1");
        let b = extract_block_between(&v1, MATRIX_BEGIN, MATRIX_END).unwrap();
        assert!(b.contains("MATRIX v1"));
        let v2 = splice_block_between(&v1, MATRIX_BEGIN, MATRIX_END, "MATRIX v2");
        let b = extract_block_between(&v2, MATRIX_BEGIN, MATRIX_END).unwrap();
        assert!(b.contains("MATRIX v2") && !b.contains("MATRIX v1"));
        assert_eq!(v2.matches(MATRIX_BEGIN).count(), 1);
    }

    #[test]
    fn both_generated_blocks_coexist() {
        let design = "# Doc\n\nbody\n";
        let v1 = splice_block_between(design, MATRIX_BEGIN, MATRIX_END, "CONFLICTS");
        let v2 = splice_block_between(&v1, PHASES_BEGIN, PHASES_END, "PHASES");
        assert_eq!(
            extract_block_between(&v2, MATRIX_BEGIN, MATRIX_END)
                .unwrap()
                .trim(),
            "CONFLICTS"
        );
        assert_eq!(
            extract_block_between(&v2, PHASES_BEGIN, PHASES_END)
                .unwrap()
                .trim(),
            "PHASES"
        );
        // Re-splicing one block leaves the other as it was.
        let v3 = splice_block_between(&v2, MATRIX_BEGIN, MATRIX_END, "CONFLICTS2");
        assert_eq!(
            extract_block_between(&v3, PHASES_BEGIN, PHASES_END)
                .unwrap()
                .trim(),
            "PHASES"
        );
    }

    fn finding(rule: &'static str, krate: &str, file: &str) -> Finding {
        Finding {
            rule,
            krate: krate.into(),
            file: file.into(),
            line: 1,
            message: "m".into(),
        }
    }

    #[test]
    fn ratchet_down_lowers_drops_and_preserves() {
        let text = "# header comment\n\
                    ratchet panicking core 90\n\
                    ratchet panicking obs 4\n\
                    \n\
                    allow wall-clock crates/core/src/pod.rs 2  # inline note\n\
                    allow float-cmp crates/core/src/energy.rs 2\n";
        let findings = vec![
            finding("panicking", "core", "crates/core/src/pod.rs"),
            finding("panicking", "core", "crates/core/src/pod.rs"),
            finding("wall-clock", "core", "crates/core/src/pod.rs"),
            finding("float-cmp", "core", "crates/core/src/energy.rs"),
            finding("float-cmp", "core", "crates/core/src/energy.rs"),
        ];
        let out = ratchet_allowlist_down(text, &findings);
        // Measured 2 < baseline 90 → lowered; obs measured 0 → zeroed.
        assert!(out.contains("ratchet panicking core 2\n"), "{out}");
        assert!(out.contains("ratchet panicking obs 0\n"), "{out}");
        // wall-clock measured 1 < allowed 2 → lowered (comment dropped).
        assert!(out.contains("allow wall-clock crates/core/src/pod.rs 1\n"));
        // float-cmp at its measured count → kept verbatim.
        assert!(out.contains("allow float-cmp crates/core/src/energy.rs 2\n"));
        // Comments and blank lines survive.
        assert!(out.starts_with("# header comment\n"));
        assert!(out.contains("\n\n"));
        // Counts are never raised.
        let more = vec![finding("panicking", "core", "f"); 200];
        let raised = ratchet_allowlist_down(text, &more);
        assert!(raised.contains("ratchet panicking core 90\n"));
    }

    #[test]
    fn ratchet_down_drops_clean_file_entries() {
        let text = "allow wall-clock crates/core/src/gone.rs 3\n";
        let out = ratchet_allowlist_down(text, &[]);
        assert!(!out.contains("gone.rs"), "{out}");
    }
}
