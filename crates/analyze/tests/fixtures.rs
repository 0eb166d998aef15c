//! Fixture workspaces with deliberately-seeded violations: every lint
//! rule must fire on its fixture with a rule-named diagnostic, and the
//! conflict checker must catch an unguarded conflicting pair.

use analyze::lint::{lint_knob_docs, lint_sources};
use std::fs;
use std::path::{Path, PathBuf};

/// A fresh fixture workspace under the cargo-managed tmp dir.
fn fixture_root(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    fs::create_dir_all(&root).unwrap();
    root
}

fn write(root: &Path, rel: &str, content: &str) {
    let p = root.join(rel);
    fs::create_dir_all(p.parent().unwrap()).unwrap();
    fs::write(p, content).unwrap();
}

const CLEAN_HEADER: &str = "#![forbid(unsafe_code)]\n";

fn rules_of(findings: &[analyze::lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn hash_iteration_in_core_is_flagged() {
    let root = fixture_root("fx-hash");
    write(
        &root,
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n",
    );
    let findings = lint_sources(&root);
    let hash: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "hash-container")
        .collect();
    assert_eq!(hash.len(), 2, "{findings:#?}"); // one finding per offending line
    assert!(hash.iter().all(|f| f.file == "crates/core/src/lib.rs"));
    assert_eq!(hash[0].line, 2);
    assert!(hash[0].message.contains("BTreeMap"));
}

#[test]
fn float_eq_is_flagged_but_tolerance_is_not() {
    let root = fixture_root("fx-float");
    write(
        &root,
        "crates/dcnet/src/lib.rs",
        &format!("{CLEAN_HEADER}pub fn f(x: f64) -> bool {{ x == 0.5 }}\npub fn g(x: f64) -> bool {{ (x - 0.5).abs() < 1e-9 }}\n"),
    );
    let findings = lint_sources(&root);
    let fc: Vec<_> = findings.iter().filter(|f| f.rule == "float-cmp").collect();
    assert_eq!(fc.len(), 1, "{findings:#?}");
    assert_eq!(fc[0].line, 2);
}

#[test]
fn panicking_fires_in_control_plane_but_not_tests_or_data_plane() {
    let root = fixture_root("fx-panic");
    let body = format!(
        "{CLEAN_HEADER}pub fn f(v: Option<u32>) -> u32 {{ v.unwrap() }}\n\
         #[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ Some(1).unwrap(); }}\n}}\n"
    );
    write(&root, "crates/core/src/lib.rs", &body);
    write(&root, "crates/workload/src/lib.rs", &body);
    let findings = lint_sources(&root);
    let p: Vec<_> = findings.iter().filter(|f| f.rule == "panicking").collect();
    // Exactly one: the non-test unwrap in the control-plane crate. The
    // test-module unwrap and the whole data-plane crate are exempt.
    assert_eq!(p.len(), 1, "{findings:#?}");
    assert_eq!(p[0].krate, "core");
    assert_eq!(p[0].line, 2);
}

#[test]
fn wall_clock_is_flagged_outside_the_exempt_paths() {
    let root = fixture_root("fx-clock");
    let body =
        format!("{CLEAN_HEADER}pub fn f() -> std::time::Instant {{ std::time::Instant::now() }}\n");
    write(&root, "crates/core/src/lib.rs", &body);
    write(&root, "crates/bench/src/lib.rs", &body); // bench measures real time by design
    write(&root, "crates/dcsim/src/time.rs", &body); // the simulated-clock module itself
    write(&root, "crates/dcsim/src/lib.rs", CLEAN_HEADER);
    let findings = lint_sources(&root);
    let w: Vec<_> = findings.iter().filter(|f| f.rule == "wall-clock").collect();
    assert_eq!(w.len(), 1, "{findings:#?}");
    assert_eq!(w[0].file, "crates/core/src/lib.rs");
}

#[test]
fn missing_unsafe_forbid_is_flagged() {
    let root = fixture_root("fx-unsafe");
    write(&root, "crates/core/src/lib.rs", "pub fn f() {}\n");
    let findings = lint_sources(&root);
    assert!(
        rules_of(&findings).contains(&"unsafe-forbid"),
        "{findings:#?}"
    );
}

#[test]
fn undocumented_config_knob_is_flagged() {
    let cfg = "pub struct KnobFlags {\n    pub link_exposure: bool,\n}\n\
               pub struct PlatformConfig {\n    pub seed: u64,\n    pub mystery_knob: f64,\n}\n";
    let design = "Documented: `link_exposure`, `seed`.";
    let findings = lint_knob_docs(cfg, design);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "knob-doc");
    assert!(findings[0].message.contains("PlatformConfig::mystery_knob"));
}

#[test]
fn unguarded_conflicting_pair_is_a_rule_named_error() {
    use megadc::footprint::{GlobalAction, GUARDS};
    // Knock out the PR 2 guard: the checker must produce a
    // `[knob-conflict]` diagnostic naming both actions.
    let reduced: Vec<_> = GUARDS
        .iter()
        .copied()
        .filter(|g| {
            !matches!(
                (g.a, g.b),
                (GlobalAction::QueueRetire, GlobalAction::VipTransfer)
                    | (GlobalAction::VipTransfer, GlobalAction::QueueRetire)
            )
        })
        .collect();
    let errors = analyze::conflict::check(&reduced);
    assert!(
        errors.iter().any(|e| e.starts_with("[knob-conflict]")
            && e.contains("QueueRetire")
            && e.contains("VipTransfer")),
        "{errors:#?}"
    );
}

#[test]
fn full_pipeline_fails_a_seeded_workspace_and_names_the_rules() {
    let root = fixture_root("fx-pipeline");
    write(
        &root,
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\npub mod config;\n",
    );
    write(
        &root,
        "crates/core/src/config.rs",
        "pub struct PlatformConfig {\n    pub undocumented_knob: f64,\n}\n",
    );
    write(&root, "DESIGN.md", "# Fixture design doc\n");
    let report = analyze::analyze_workspace(&root);
    assert!(!report.clean());
    for rule in ["[hash-container]", "[knob-doc]", "[conflict-matrix]"] {
        assert!(
            report.errors.iter().any(|e| e.contains(rule)),
            "missing {rule} in {:#?}",
            report.errors
        );
    }
}

#[test]
fn raw_thread_in_control_plane_is_flagged() {
    let root = fixture_root("fx-thread");
    let body = format!(
        "{CLEAN_HEADER}pub fn f() {{ std::thread::spawn(|| ()); }}\n\
         pub fn g(fleet: &mut Fleet) {{ fleet.spawn(1); }}\n\
         #[cfg(test)]\nmod tests {{\n    fn t() {{ std::thread::scope(|_| ()); }}\n}}\n"
    );
    write(&root, "crates/core/src/lib.rs", &body);
    write(&root, "crates/bench/src/lib.rs", &body); // not a control-plane crate
    let findings = lint_sources(&root);
    let t: Vec<_> = findings.iter().filter(|f| f.rule == "raw-thread").collect();
    // Exactly one: the spawn in core's non-test code. A method named
    // `spawn`, the test module and the bench crate are exempt.
    assert_eq!(t.len(), 1, "{findings:#?}");
    assert_eq!(t[0].file, "crates/core/src/lib.rs");
    assert_eq!(t[0].line, 2);
    assert!(t[0].message.contains("thread::spawn"));
}

#[test]
fn missing_global_action_emit_site_is_flagged() {
    use analyze::lint::lint_emit_coverage;
    use megadc::footprint::ALL_ACTIONS;
    let root = fixture_root("fx-emit");
    // Emit sites for every action except VipTransfer (and for both fault
    // kinds, which the lint holds to the same bar); the lint must name
    // exactly the missing one. A token inside a test module must not
    // count as coverage.
    let mut body = String::from(CLEAN_HEADER);
    for a in ALL_ACTIONS {
        if a.name() != "VipTransfer" {
            body.push_str(&format!(
                "pub fn emit_{}() {{ record(GlobalAction::{}); }}\n",
                a.name().to_lowercase(),
                a.name()
            ));
        }
    }
    for kind in megadc::obs::FAULT_KINDS {
        body.push_str(&format!(
            "pub fn emit_{}() {{ record_kind(ActionKind::{}); }}\n",
            kind.key().to_lowercase(),
            kind.key()
        ));
    }
    body.push_str(
        "#[cfg(test)]\nmod tests {\n    fn t() { record(GlobalAction::VipTransfer); }\n}\n",
    );
    write(&root, "crates/core/src/lib.rs", &body);
    let findings = lint_emit_coverage(&root);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "emit-coverage");
    assert!(findings[0].message.contains("GlobalAction::VipTransfer"));
}
