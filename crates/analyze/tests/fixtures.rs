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

/// The item names `--deny` reports as `[dead-pub]` errors for a fixture.
fn dead_pub_names(root: &Path) -> Vec<String> {
    analyze::analyze_workspace(root)
        .errors
        .iter()
        .filter(|e| e.starts_with("[dead-pub]"))
        .filter_map(|e| e.split('`').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn unused_pub_fn_fails_deny() {
    let root = fixture_root("fx-dead-unused");
    write(
        &root,
        "crates/dcnet/src/lib.rs",
        &format!(
            "{CLEAN_HEADER}pub fn orphan() -> u32 {{ 1 }}\n\
             pub const fn helper() -> u32 {{ 2 }}\n\
             fn private() -> u32 {{ helper() }}\n"
        ),
    );
    assert_eq!(dead_pub_names(&root), ["orphan"]);
    let findings = lint_sources(&root);
    let dead: Vec<_> = findings.iter().filter(|f| f.rule == "dead-pub").collect();
    assert_eq!(dead.len(), 1, "{findings:#?}");
    assert_eq!(
        (dead[0].file.as_str(), dead[0].line),
        ("crates/dcnet/src/lib.rs", 2)
    );
}

#[test]
fn pub_fn_used_only_by_unit_tests_fails_deny() {
    let root = fixture_root("fx-dead-unit-test");
    write(
        &root,
        "crates/dcnet/src/lib.rs",
        &format!(
            "{CLEAN_HEADER}pub fn tested_only() -> u32 {{ 1 }}\n\
             #[cfg(test)]\nmod tests {{\n    #[test]\n    \
             fn t() {{ assert_eq!(super::tested_only(), 1); }}\n}}\n"
        ),
    );
    assert_eq!(dead_pub_names(&root), ["tested_only"]);
}

#[test]
fn name_only_in_comments_or_strings_fails_deny() {
    let root = fixture_root("fx-dead-comment");
    write(
        &root,
        "crates/dcnet/src/lib.rs",
        &format!(
            "{CLEAN_HEADER}/// See [`documented_only`].\npub fn documented_only() {{}}\n\
             pub enum Quoted {{ A }}\n\
             fn f() -> &'static str {{ \"Quoted\" }} // documented_only\n"
        ),
    );
    write(
        &root,
        "tests/it.rs",
        "#[test]\nfn t() { /* Quoted */ let _ = \"documented_only\"; }\n",
    );
    assert_eq!(dead_pub_names(&root), ["documented_only", "Quoted"]);
}

#[test]
fn uses_from_other_crates_examples_and_integration_tests_pass_deny() {
    let root = fixture_root("fx-dead-used");
    write(
        &root,
        "crates/dcnet/src/lib.rs",
        &format!(
            "{CLEAN_HEADER}pub fn cross_crate() {{}}\npub fn from_example() {{}}\n\
             pub fn from_integration_test() {{}}\npub fn from_crate_test() {{}}\n\
             pub struct Fabric;\npub type Alias = u32;\npub static TABLE: [u32; 1] = [0];\n"
        ),
    );
    write(
        &root,
        "crates/core/src/lib.rs",
        &format!("{CLEAN_HEADER}fn drive() -> u32 {{ dcnet::cross_crate(); dcnet::TABLE[0] }}\n"),
    );
    write(
        &root,
        "examples/demo.rs",
        "fn main() { dcnet::from_example(); }\n",
    );
    write(
        &root,
        "tests/it.rs",
        "#[test]\nfn t() { dcnet::from_integration_test(); }\n",
    );
    write(
        &root,
        "crates/dcnet/tests/t.rs",
        "#[test]\nfn t() { dcnet::from_crate_test(); let _: dcnet::Alias = 1; }\n",
    );
    write(
        &root,
        "megabench/src/main.rs",
        "fn main() { let _ = dcnet::Fabric; }\n",
    );
    assert!(dead_pub_names(&root).is_empty());
}

#[test]
fn cfg_test_and_crate_visible_items_are_not_flagged() {
    let root = fixture_root("fx-dead-cfg-test");
    write(
        &root,
        "crates/dcnet/src/lib.rs",
        &format!(
            "{CLEAN_HEADER}#[cfg(test)]\npub fn test_helper() -> u32 {{ 1 }}\n\
             #[cfg(test)]\n#[derive(Debug)]\npub struct Probe {{\n    pub hits: u32,\n}}\n\
             pub(crate) fn crate_only() {{}}\n"
        ),
    );
    assert!(dead_pub_names(&root).is_empty());
}
