//! The real workspace must pass its own gate: this is the same check CI
//! runs via `cargo run -p analyze -- --deny`, as a test, so `cargo test`
//! alone catches a regression.

#[test]
fn real_workspace_is_clean_under_deny() {
    let root = analyze::default_root();
    assert!(
        root.join("Cargo.toml").exists() && root.join("DESIGN.md").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let report = analyze::analyze_workspace(&root);
    assert!(
        report.clean(),
        "the workspace no longer passes `cargo run -p analyze -- --deny`:\n{}",
        report.errors.join("\n")
    );
}

/// Every stub under `vendor/` must still be depended on. Cargo leaves a
/// `[workspace.dependencies]` entry that no member uses out of
/// `Cargo.lock`, so a vendored package missing from the lock has
/// outlived its last user and should be deleted with its workspace entry.
#[test]
fn every_vendored_crate_has_a_dependent() {
    let root = analyze::default_root();
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("read Cargo.lock");
    let mut manifests: Vec<_> = std::fs::read_dir(root.join("vendor"))
        .expect("read vendor/")
        .map(|entry| entry.expect("vendor/ entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.exists())
        .collect();
    manifests.sort();
    assert!(!manifests.is_empty(), "no vendored manifests found");
    let unused: Vec<String> = manifests
        .iter()
        .map(|manifest| {
            let text = std::fs::read_to_string(manifest).expect("read vendored manifest");
            let name = text
                .lines()
                .find_map(|line| line.strip_prefix("name = "))
                .unwrap_or_else(|| panic!("no package name in {}", manifest.display()));
            name.trim().trim_matches('"').to_string()
        })
        .filter(|name| {
            !lock
                .lines()
                .any(|line| line == format!("name = \"{name}\""))
        })
        .collect();
    assert!(
        unused.is_empty(),
        "vendored crates with no dependent (absent from Cargo.lock): {unused:?}"
    );
}
