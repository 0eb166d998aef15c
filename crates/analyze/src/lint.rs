//! Pass 1 — the workspace determinism linter.
//!
//! A line/token-level scanner over `crates/*/src` (no rustc plugin)
//! flagging the project-specific hazard classes that would silently
//! break the bit-identical-rerun invariant or the no-panic control
//! paths:
//!
//! * `hash-container` — `HashMap`/`HashSet` in non-test code. Iteration
//!   order is nondeterministic across processes; control-plane and
//!   output paths must use `BTreeMap`/`BTreeSet` or sorted iteration.
//! * `float-cmp` — direct `==`/`!=` against a float literal. Exact
//!   float equality is order-sensitive; vetted exact-zero sentinels are
//!   allowlisted.
//! * `panicking` — `unwrap()`/`expect(`/`panic!`/`unreachable!` in
//!   non-test control-plane code ([`CONTROL_PLANE_CRATES`]), counted
//!   per crate against a ratcheting baseline that can only go down.
//! * `raw-thread` — `thread::spawn`/`thread::scope`/`thread::Builder`
//!   in non-test control-plane code. The epoch runs its phases one
//!   after another; a thread started inside it would make results
//!   depend on scheduling.
//! * `wall-clock` — `Instant::now`/`SystemTime` outside `dcsim::time`
//!   and the `bench` crate (which measures real CPU time by design).
//! * `unsafe-forbid` — every workspace crate root must carry
//!   `#![forbid(unsafe_code)]`.
//! * `knob-doc` — every `PlatformConfig`/`KnobFlags` field must be
//!   mentioned in DESIGN.md, so knobs cannot ship undocumented.
//! * `emit-coverage` — every declared `GlobalAction` must have a
//!   flight-recorder emit site in `crates/core/src` non-test code, so
//!   no control-plane action can silently skip the audit trail.
//! * `metric-doc` — every registered metric must be documented in
//!   DESIGN.md, and every epoch phase must emit one.
//! * `dead-pub` — every `pub` item in `crates/*/src` non-test code must
//!   be named somewhere else in non-test code (`crates/*/tests`,
//!   `examples/`, `megabench/src` and `tests/` included), so code that
//!   only its own unit tests call cannot pile up.

use crate::source::{strip, test_line_mask};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose control paths must not panic (the ratcheted rule).
pub const CONTROL_PLANE_CRATES: &[&str] = &[
    "chaos",
    "core",
    "dcsim",
    "elastic",
    "lbswitch",
    "obs",
    "placement",
];

/// Thread entry points the `raw-thread` rule rejects. A bare `.spawn(`
/// is not among them: it would also match `vmm::Fleet::spawn`.
const RAW_THREAD_TOKENS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];

/// Directories outside `crates/*/src` whose non-test code counts as a
/// use for `dead-pub` (each `crates/*/tests` is added per crate).
const USE_DIRS: [&str; 3] = ["examples", "megabench/src", "tests"];

/// The declaration keywords `dead-pub` checks, longest first so that
/// `const fn` wins over `const`.
const PUB_KINDS: [&str; 8] = [
    "const fn", "fn", "struct", "enum", "trait", "type", "const", "static",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`hash-container`, `float-cmp`, `panicking`,
    /// `raw-thread`, `wall-clock`, `unsafe-forbid`, `knob-doc`,
    /// `emit-coverage`, `metric-doc`, `dead-pub`).
    pub rule: &'static str,
    /// Crate directory name under `crates/` (e.g. `core`).
    pub krate: String,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number (0 for file/crate-level findings).
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets of every occurrence of `needle` in `line` as a whole
/// token (not embedded in a longer identifier).
fn token_positions(line: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + needle.len()..].chars().next().unwrap_or(' ');
        // A trailing `!`/`(`/`:` is fine; another ident char means we
        // matched inside a longer name.
        if before_ok && !is_ident_char(after) {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

fn find_token(line: &str, needle: &str) -> Option<usize> {
    token_positions(line, needle).into_iter().next()
}

/// Is the text at `s` (after optional sign/spaces) a float literal?
fn starts_with_float_literal(s: &str) -> bool {
    let s = s.trim_start();
    let s = s.strip_prefix('-').unwrap_or(s).trim_start();
    let mut chars = s.chars().peekable();
    let mut digits = 0;
    while chars
        .peek()
        .is_some_and(|c| c.is_ascii_digit() || *c == '_')
    {
        chars.next();
        digits += 1;
    }
    digits > 0 && chars.peek() == Some(&'.')
}

/// Does the text *ending* at this point end in a float literal
/// (e.g. the left operand of `0.5 == x`)?
fn ends_with_float_literal(s: &str) -> bool {
    let s = s.trim_end();
    let mut rev = s.chars().rev().peekable();
    let mut digits_after = 0;
    while rev.peek().is_some_and(|c| c.is_ascii_digit() || *c == '_') {
        rev.next();
        digits_after += 1;
    }
    if digits_after == 0 || rev.next() != Some('.') {
        return false;
    }
    // A literal's dot is preceded by a digit (`1.0`); tuple-field access
    // is preceded by an identifier, `]`, or `)` (`r.0`, `pair[0].0`).
    rev.peek().is_some_and(|c| c.is_ascii_digit())
}

/// Scan one stripped line for direct float-literal `==`/`!=` compares.
fn float_cmp_on_line(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &line[i..i + 2];
        let is_eq = two == "==";
        let is_ne = two == "!=";
        if is_eq || is_ne {
            let prev = if i == 0 { b' ' } else { bytes[i - 1] };
            let next = bytes.get(i + 2).copied().unwrap_or(b' ');
            // Skip `<=`, `>=`, `===`-ish and `=>`/pattern arrows; `!=` is
            // never preceded by an operator char in valid code we care
            // about, and `a !== b` is not Rust.
            let operator_ok = if is_eq {
                !matches!(prev, b'<' | b'>' | b'!' | b'=' | b'+' | b'-' | b'*' | b'/')
                    && next != b'='
            } else {
                next != b'='
            };
            if operator_ok
                && (starts_with_float_literal(&line[i + 2..])
                    || ends_with_float_literal(&line[..i]))
            {
                return true;
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

fn panicking_on_line(line: &str) -> Option<&'static str> {
    // `.unwrap()` / `.expect(` as method calls; the macros as tokens.
    for at in token_positions(line, "unwrap") {
        if line[at..].starts_with("unwrap()") && line[..at].trim_end().ends_with('.') {
            return Some("unwrap()");
        }
    }
    for at in token_positions(line, "expect") {
        if line[at..].starts_with("expect(") && line[..at].trim_end().ends_with('.') {
            return Some("expect()");
        }
    }
    for (needle, label) in [
        ("panic", "panic!"),
        ("unreachable", "unreachable!"),
        ("todo", "todo!"),
        ("unimplemented", "unimplemented!"),
    ] {
        for at in token_positions(line, needle) {
            if line[at + needle.len()..].starts_with('!') {
                return Some(label);
            }
        }
    }
    None
}

/// Where the out-of-line `#[cfg(test)] mod name;` modules that `file`
/// declares live: `name.rs`, or `name/` and everything under it, beside
/// `file` for a crate root or `mod.rs`, else in the directory named
/// after it.
fn test_module_paths(file: &Path, stripped: &str, mask: &[bool]) -> Vec<PathBuf> {
    let (Some(parent), Some(stem)) = (file.parent(), file.file_stem()) else {
        return Vec::new();
    };
    let dir = match stem.to_str() {
        Some("lib" | "main" | "mod") => parent.to_path_buf(),
        _ => parent.join(stem),
    };
    stripped
        .lines()
        .zip(mask)
        .filter(|&(_, &test)| test)
        .filter_map(|(line, _)| {
            let name = line.trim().strip_suffix(';')?.rsplit_once("mod ")?.1.trim();
            name.chars().all(is_ident_char).then(|| dir.join(name))
        })
        .collect()
}

/// The kind and name of the `pub` item a stripped line declares, for
/// the kinds in [`PUB_KINDS`] (`pub(crate)` and friends are rustc's
/// `dead_code` lint's business).
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?.trim_start();
    PUB_KINDS.iter().find_map(|&kind| {
        let name = rest.strip_prefix(kind)?.strip_prefix(' ')?.trim_start();
        let end = name.find(|c| !is_ident_char(c)).unwrap_or(name.len());
        let name = &name[..end];
        let starts_ok = name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_');
        (starts_ok && name != "_").then_some((kind, name))
    })
}

/// `dead-pub`'s index: how often each identifier appears in non-test
/// code, and every `pub` declaration in `crates/*/src` with its name.
#[derive(Default)]
struct PubIndex {
    tokens: BTreeMap<String, usize>,
    decls: Vec<(String, Finding)>,
}

impl PubIndex {
    /// Count the tokens of one file's non-test lines; with `krate`, also
    /// record its `pub` declarations.
    fn add(&mut self, stripped: &str, mask: &[bool], krate: Option<(&str, &str)>) {
        for (idx, line) in stripped.lines().enumerate() {
            if mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for tok in line.split(|c| !is_ident_char(c)).filter(|t| !t.is_empty()) {
                *self.tokens.entry(tok.to_string()).or_default() += 1;
            }
            if let (Some((krate, file)), Some((kind, name))) = (krate, pub_item(line)) {
                let finding = Finding {
                    rule: "dead-pub",
                    krate: krate.to_string(),
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "pub {kind} `{name}` is named nowhere else in non-test code; \
                         delete it, or gate it #[cfg(test)] if only unit tests call it"
                    ),
                };
                self.decls.push((name.to_string(), finding));
            }
        }
    }

    /// Count the tokens of every `.rs` file under `dir`.
    fn add_dir(&mut self, dir: &Path) {
        for file in rust_files(dir) {
            if let Ok(text) = fs::read_to_string(&file) {
                let stripped = strip(&text);
                self.add(&stripped, &test_line_mask(&stripped), None);
            }
        }
    }

    /// The declarations whose name has no token besides their own.
    fn dead(self) -> impl Iterator<Item = Finding> {
        let tokens = self.tokens;
        self.decls
            .into_iter()
            .filter(move |(name, _)| tokens.get(name).is_some_and(|&n| n <= 1))
            .map(|(_, finding)| finding)
    }
}

/// Lint every `crates/*/src/**/*.rs` file under `root`.
pub fn lint_sources(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut pub_index = PubIndex::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crate_dirs.sort();
    for crate_dir in crate_dirs.iter().filter(|p| p.is_dir()) {
        let krate = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        pub_index.add_dir(&crate_dir.join("tests"));
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        // unsafe-forbid: crate roots must forbid unsafe code.
        for root_file in ["lib.rs", "main.rs"] {
            let p = src.join(root_file);
            if let Ok(text) = fs::read_to_string(&p) {
                if !strip(&text).contains("#![forbid(unsafe_code)]") {
                    findings.push(Finding {
                        rule: "unsafe-forbid",
                        krate: krate.clone(),
                        file: rel(root, &p),
                        line: 0,
                        message: "crate root is missing #![forbid(unsafe_code)]".into(),
                    });
                }
            }
        }
        let control_plane = CONTROL_PLANE_CRATES.contains(&krate.as_str());
        let files: Vec<(PathBuf, String, Vec<bool>)> = rust_files(&src)
            .into_iter()
            .filter_map(|file| {
                let stripped = strip(&fs::read_to_string(&file).ok()?);
                let mask = test_line_mask(&stripped);
                Some((file, stripped, mask))
            })
            .collect();
        let test_modules: Vec<PathBuf> = files
            .iter()
            .flat_map(|(file, stripped, mask)| test_module_paths(file, stripped, mask))
            .collect();
        for (file, stripped, mut mask) in files {
            if test_modules
                .iter()
                .any(|m| file == m.with_extension("rs") || file.starts_with(m))
            {
                mask.iter_mut().for_each(|m| *m = true);
            }
            let relpath = rel(root, &file);
            pub_index.add(&stripped, &mask, Some((&krate, &relpath)));
            let wallclock_exempt = krate == "bench" || relpath.ends_with("dcsim/src/time.rs");
            for (idx, line) in stripped.lines().enumerate() {
                if mask.get(idx).copied().unwrap_or(false) {
                    continue; // test code
                }
                let lineno = idx + 1;
                for container in ["HashMap", "HashSet"] {
                    if find_token(line, container).is_some() {
                        findings.push(Finding {
                            rule: "hash-container",
                            krate: krate.clone(),
                            file: relpath.clone(),
                            line: lineno,
                            message: format!(
                                "{container} iteration order is nondeterministic; use \
                                 BTreeMap/BTreeSet or sorted iteration"
                            ),
                        });
                    }
                }
                if float_cmp_on_line(line) {
                    findings.push(Finding {
                        rule: "float-cmp",
                        krate: krate.clone(),
                        file: relpath.clone(),
                        line: lineno,
                        message: "direct ==/!= against a float literal; compare with a \
                                  tolerance or allowlist the vetted exact-zero sentinel"
                            .into(),
                    });
                }
                if control_plane {
                    if let Some(tok) = panicking_on_line(line) {
                        findings.push(Finding {
                            rule: "panicking",
                            krate: krate.clone(),
                            file: relpath.clone(),
                            line: lineno,
                            message: format!(
                                "{tok} in non-test control-plane code (ratcheted; see \
                                 crates/analyze/allowlist.txt)"
                            ),
                        });
                    }
                    for tok in RAW_THREAD_TOKENS {
                        if line.contains(tok) {
                            findings.push(Finding {
                                rule: "raw-thread",
                                krate: krate.clone(),
                                file: relpath.clone(),
                                line: lineno,
                                message: format!(
                                    "`{tok}` in control-plane code; epoch phases run \
                                     serially, so a thread here makes results depend \
                                     on scheduling"
                                ),
                            });
                        }
                    }
                }
                if !wallclock_exempt
                    && (line.contains("Instant::now") || find_token(line, "SystemTime").is_some())
                {
                    findings.push(Finding {
                        rule: "wall-clock",
                        krate: krate.clone(),
                        file: relpath.clone(),
                        line: lineno,
                        message: "wall-clock time outside dcsim::time breaks reproducibility; \
                                  use SimTime (or allowlist measured-runtime instrumentation)"
                            .into(),
                    });
                }
            }
        }
    }
    for dir in USE_DIRS {
        pub_index.add_dir(&root.join(dir));
    }
    findings.extend(pub_index.dead());
    findings
}

/// `emit-coverage`: every declared [`megadc::footprint::GlobalAction`]
/// must have a flight-recorder emit site in `crates/core/src` non-test
/// code — a `GlobalAction::<Variant>` token. An action whose footprint
/// is declared but never recorded would silently escape the decision
/// audit trail (and the conflict matrix would overstate coverage).
///
/// The fault kinds ([`megadc::obs::FAULT_KINDS`]: `FaultInject`,
/// `LinkDegrade`)
/// are held to the same bar: the chaos oracles and `obs explain` both
/// key off those events, so an injection path that stops recording them
/// would make every fault invisible to the audit trail.
pub fn lint_emit_coverage(root: &Path) -> Vec<Finding> {
    use megadc::footprint::ALL_ACTIONS;
    let src = root.join("crates/core/src");
    let mut non_test = String::new();
    for file in rust_files(&src) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let stripped = strip(&text);
        let mask = test_line_mask(&stripped);
        for (idx, line) in stripped.lines().enumerate() {
            if !mask.get(idx).copied().unwrap_or(false) {
                non_test.push_str(line);
                non_test.push('\n');
            }
        }
    }
    let mut findings = Vec::new();
    for action in ALL_ACTIONS {
        let token = format!("GlobalAction::{}", action.name());
        if !mentions_word(&non_test, &token) {
            findings.push(Finding {
                rule: "emit-coverage",
                krate: "core".into(),
                file: "crates/core/src".into(),
                line: 0,
                message: format!(
                    "{token} is declared in crates/obs/src/footprint.rs but never \
                     emitted from crates/core/src non-test code; every declared \
                     action must record a flight-recorder event"
                ),
            });
        }
    }
    for kind in megadc::obs::FAULT_KINDS {
        let token = format!("ActionKind::{}", kind.key());
        if !mentions_word(&non_test, &token) {
            findings.push(Finding {
                rule: "emit-coverage",
                krate: "core".into(),
                file: "crates/core/src".into(),
                line: 0,
                message: format!(
                    "{token} has no emit site in crates/core/src non-test code; \
                     fault injection must record a flight-recorder event or the \
                     chaos oracles and `obs explain` cannot see the fault"
                ),
            });
        }
    }
    findings
}

/// `knob-doc`: every `pub` field of `KnobFlags` and `PlatformConfig` in
/// `config_src` must be mentioned in `design_text`.
pub fn lint_knob_docs(config_src: &str, design_text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stripped = strip(config_src);
    for (strukt, fields) in [
        ("KnobFlags", struct_fields(&stripped, "KnobFlags")),
        ("PlatformConfig", struct_fields(&stripped, "PlatformConfig")),
    ] {
        for (line, field) in fields {
            if !mentions_word(design_text, &field) {
                findings.push(Finding {
                    rule: "knob-doc",
                    krate: "core".into(),
                    file: "crates/core/src/config.rs".into(),
                    line,
                    message: format!(
                        "{strukt}::{field} is not mentioned in DESIGN.md; knobs must not \
                         ship undocumented"
                    ),
                });
            }
        }
    }
    findings
}

/// `metric-doc`: the metric catalog and its documentation must stay in
/// lockstep. Every unique metric name registered in
/// `obs::metrics::METRICS` must be mentioned in DESIGN.md's metric
/// catalog, and every declared epoch phase must emit at least one
/// registered metric — an uninstrumented phase is invisible to the
/// registry scrape, and an undocumented metric ships meaning nobody
/// wrote down.
pub fn lint_metric_docs(design_text: &str) -> Vec<Finding> {
    use megadc::obs::metrics::METRICS;
    use megadc::phases::EPOCH_PHASES;
    let mut findings = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for spec in METRICS {
        if seen.contains(&spec.name) {
            continue;
        }
        seen.push(spec.name);
        if !mentions_word(design_text, spec.name) {
            findings.push(Finding {
                rule: "metric-doc",
                krate: "obs".into(),
                file: "crates/obs/src/metrics.rs".into(),
                line: 0,
                message: format!(
                    "metric {} is registered in obs::metrics::METRICS but not \
                     mentioned in DESIGN.md; the metric catalog must document \
                     every exported series",
                    spec.name
                ),
            });
        }
    }
    for phase in EPOCH_PHASES {
        if !METRICS.iter().any(|spec| spec.phase == phase.id) {
            findings.push(Finding {
                rule: "metric-doc",
                krate: "obs".into(),
                file: "crates/obs/src/metrics.rs".into(),
                line: 0,
                message: format!(
                    "epoch phase {} emits no registered metric; every declared \
                     phase must be instrumented (add a MetricSpec with \
                     phase: \"{}\")",
                    phase.id, phase.id
                ),
            });
        }
    }
    findings
}

/// Extract `pub <ident>:` field names (with 1-based line numbers) from
/// the struct named `name` in stripped source.
fn struct_fields(stripped: &str, name: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let header = format!("struct {name} ");
    let alt_header = format!("struct {name}{{");
    let mut depth = 0i64;
    let mut inside = false;
    for (idx, line) in stripped.lines().enumerate() {
        if !inside && (line.contains(&header) || line.contains(&alt_header)) && line.contains('{') {
            inside = true;
            depth = 0;
        }
        if inside {
            for c in line.chars() {
                if c == '{' {
                    depth += 1;
                } else if c == '}' {
                    depth -= 1;
                }
            }
            let t = line.trim();
            if depth == 1 {
                if let Some(rest) = t.strip_prefix("pub ") {
                    if let Some(colon) = rest.find(':') {
                        let ident: String = rest[..colon].trim().to_string();
                        if !ident.is_empty() && ident.chars().all(is_ident_char) {
                            out.push((idx + 1, ident));
                        }
                    }
                }
            }
            if depth == 0 && line.contains('}') {
                inside = false;
            }
        }
    }
    out
}

/// Word-boundary mention check (backticks, punctuation and whitespace
/// all count as boundaries).
fn mentions_word(text: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(text[..at].chars().next_back().unwrap_or(' '));
        let after = text[at + word.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            return true;
        }
        from = at + word.len();
    }
    false
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_cmp_detection() {
        assert!(float_cmp_on_line("if x == 0.0 {"));
        assert!(float_cmp_on_line("if 0.5 != y {"));
        assert!(!float_cmp_on_line("if x <= 0.0 {"));
        assert!(!float_cmp_on_line("if x >= 0.0 {"));
        assert!(!float_cmp_on_line("if a == b {"));
        assert!(!float_cmp_on_line("if n == 3 {"));
        // Tuple-field access is not a float literal.
        assert!(!float_cmp_on_line("if self.0 == 0 {"));
        assert!(!float_cmp_on_line(
            "let on0 = rec.router.map(|r| r.0 == 0);"
        ));
        assert!(!float_cmp_on_line("published[0].0 == covered[0]"));
    }

    #[test]
    fn panicking_detection() {
        assert_eq!(
            panicking_on_line("let x = m.get(k).unwrap();"),
            Some("unwrap()")
        );
        assert_eq!(panicking_on_line("v.expect(\"msg\");"), Some("expect()"));
        assert_eq!(panicking_on_line("panic!(\"boom\")"), Some("panic!"));
        assert_eq!(
            panicking_on_line("_ => unreachable!(),"),
            Some("unreachable!")
        );
        assert_eq!(panicking_on_line("let unwrap = 3;"), None);
        assert_eq!(panicking_on_line("fn expect_this() {}"), None);
    }

    #[test]
    fn struct_field_extraction() {
        let src = "pub struct KnobFlags {\n    pub link_exposure: bool,\n    pub vip_transfer: bool,\n}\n";
        let fields = struct_fields(src, "KnobFlags");
        let names: Vec<&str> = fields.iter().map(|(_, f)| f.as_str()).collect();
        assert_eq!(names, vec!["link_exposure", "vip_transfer"]);
    }

    #[test]
    fn knob_doc_mentions() {
        let cfg = "pub struct KnobFlags {\n    pub link_exposure: bool,\n}\npub struct PlatformConfig {\n    pub seed: u64,\n}\n";
        let design = "The `link_exposure` knob. Seeds: `seed`.";
        assert!(lint_knob_docs(cfg, design).is_empty());
        let design2 = "The `link_exposure` knob only.";
        let f = lint_knob_docs(cfg, design2);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("PlatformConfig::seed"));
    }

    #[test]
    fn metric_doc_requires_every_name_and_instruments_every_phase() {
        // A document naming every registered metric is clean (and the
        // phase-coverage half holds because the live catalog instruments
        // every declared phase — the same invariant the production run
        // checks).
        let mut full = String::new();
        for spec in megadc::obs::metrics::METRICS {
            full.push('`');
            full.push_str(spec.name);
            full.push_str("`\n");
        }
        assert!(lint_metric_docs(&full).is_empty());

        // Dropping one metric from the document names exactly it.
        let missing = megadc::obs::metrics::METRICS[0].name;
        let partial: String = full.replace(missing, "");
        let f = lint_metric_docs(&partial);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(missing));
        assert_eq!(f[0].rule, "metric-doc");
    }
}
