//! Pass 3 — phase-aware effect analysis of the parallel epoch.
//!
//! Consumes the declarations in [`megadc::phases`] (the epoch-phase
//! analogue of the global-action footprints) and certifies them three
//! ways:
//!
//! 1. **Declaration checks** ([`check_decls`]) — a phase marked parallel
//!    may only publish results through a declared ordered reduction
//!    (never direct writes), a serial phase declares no reduction, and a
//!    *non-commutative* reduction must name its fixed merge order — the
//!    commutativity check. Float accumulation merged "whenever workers
//!    finish" is exactly the nondeterminism the epoch engine exists to
//!    prevent.
//! 2. **Region lint** ([`lint_regions`]) — scans `crates/core` for every
//!    `EpochPool` entry point (`map_into`), matches
//!    the call site to a [`megadc::phases::RegionDecl`] by its `REGION_*`
//!    const token, and rejects: closures mutating anything that is not a
//!    closure-local or a declared thread-local capture; interior
//!    mutability / locking / event emission / environment access inside
//!    a region (no declaration can vet those); undeclared regions; stale
//!    declarations (a region or declared capture with no matching code);
//!    and raw `thread::scope`/`spawn` outside `parallel.rs` — parallelism
//!    must flow through the pool or it escapes this analysis entirely.
//! 3. **Matrix generation** ([`phases_matrix`]) — renders the phase ×
//!    resource effect table and the region capture table into the
//!    generated "parallel safety matrix" block in DESIGN.md.
//!
//! The borrow checker already rules out data races (the workspace
//! forbids `unsafe`); this pass guards *determinism*, which rustc cannot
//! see.

use crate::source::{strip, test_line_mask};
use megadc::phases::{PhaseDecl, RegionDecl, EPOCH_PHASES, REGIONS};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Method names that mutate their receiver. A call `root.….method(…)`
/// inside a region closure is a write to `root`.
const MUT_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "remove",
    "entry",
    "extend",
    "extend_from_slice",
    "clear",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "resize",
    "truncate",
    "drain",
    "retain",
    "get_mut",
    "iter_mut",
    "values_mut",
    "store",
    "fetch_add",
    "fetch_sub",
    "swap",
    "replace",
    "record",
    "incr",
    "emit",
    "set_offered_loads",
];

/// Tokens that are categorically banned inside a region closure:
/// synchronization and interior mutability would launder shared writes
/// past the target analysis, and event emission / environment access
/// from a worker breaks the serial-sections-only contract.
const DENY_TOKENS: &[(&str, &str)] = &[
    (
        "Mutex",
        "locking hides a shared write from the reduction order",
    ),
    (
        "RwLock",
        "locking hides a shared write from the reduction order",
    ),
    (
        "RefCell",
        "interior mutability bypasses the declared effect set",
    ),
    (
        "UnsafeCell",
        "interior mutability bypasses the declared effect set",
    ),
    (
        "AtomicUsize",
        "atomics merge in completion order, not a declared order",
    ),
    (
        "AtomicU64",
        "atomics merge in completion order, not a declared order",
    ),
    (
        "AtomicBool",
        "atomics merge in completion order, not a declared order",
    ),
    (
        "recorder",
        "events must be emitted from serial sections only",
    ),
    (
        "env",
        "environment access inside a parallel region is unauditable",
    ),
];

/// Validate the phase/region declaration tables themselves.
pub fn check_decls(phases: &[PhaseDecl], regions: &[RegionDecl]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut seen = BTreeSet::new();
    for p in phases {
        if !seen.insert(p.id) {
            errors.push(format!("[phase-decl] duplicate phase id `{}`", p.id));
        }
        if p.parallel {
            for w in p.writes {
                errors.push(format!(
                    "[phase-decl] parallel phase `{}` declares a direct write to `{}`; \
                     parallel phases may only publish through an ordered reduction \
                     (declare it in `reduces`, merge serially)",
                    p.id,
                    w.name()
                ));
            }
            if p.reduces.is_empty() {
                errors.push(format!(
                    "[phase-decl] parallel phase `{}` declares no reduction — worker \
                     results have no declared way to reach shared state",
                    p.id
                ));
            }
        } else if !p.reduces.is_empty() {
            errors.push(format!(
                "[phase-decl] serial phase `{}` declares a reduction; only parallel \
                 phases merge per-thread partials",
                p.id
            ));
        }
        for r in p.reduces {
            if !r.commutative && r.order.is_none() {
                errors.push(format!(
                    "[phase-commute] phase `{}` reduces `{}` order-sensitively but \
                     declares no fixed merge order — an EpochOrder-style guard is \
                     required (or prove bit-level commutativity and mark it so)",
                    p.id,
                    r.resource.name()
                ));
            }
        }
    }
    let mut region_ids = BTreeSet::new();
    for r in regions {
        if !region_ids.insert(r.id) {
            errors.push(format!("[phase-decl] duplicate region id `{}`", r.id));
        }
        match phases.iter().find(|p| p.id == r.phase) {
            None => errors.push(format!(
                "[phase-decl] region `{}` names unknown phase `{}`",
                r.id, r.phase
            )),
            Some(p) if !p.parallel => errors.push(format!(
                "[phase-decl] region `{}` is attached to serial phase `{}`; only \
                 parallel phases have pool regions",
                r.id, r.phase
            )),
            Some(_) => {}
        }
    }
    errors
}

/// One parallel-region call site found in the source.
struct CallSite {
    file: String,
    line: usize,
    /// Full balanced argument text of the `map_into` call.
    args: String,
}

/// Scan `crates/core` under `root` for `EpochPool` call sites and lint
/// each closure against `regions`. Returns error strings (empty = clean).
pub fn lint_regions(root: &Path, regions: &[RegionDecl]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut used: BTreeSet<&str> = BTreeSet::new();
    let src = root.join("crates/core/src");
    for file in crate::lint::rust_files_in(&src) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let relpath = crate::lint::rel_path(root, &file);
        // `parallel.rs` *implements* the pool — its internal forwarding
        // calls and raw `thread::scope` are the mechanism under audit,
        // not users of it.
        if relpath.ends_with("parallel.rs") {
            continue;
        }
        let stripped = strip(&text);
        let mask = test_line_mask(&stripped);
        // Raw threading outside the pool is an undeclared parallel region.
        for (idx, line) in stripped.lines().enumerate() {
            if mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for tok in ["thread::scope", "thread::spawn", ".spawn("] {
                if line.contains(tok) {
                    errors.push(format!(
                        "[phase-region] {relpath}:{}: raw `{tok}` outside \
                         megadc::parallel — all parallelism must enter through \
                         EpochPool so the effect analysis can see it",
                        idx + 1
                    ));
                }
            }
        }
        for site in call_sites(&stripped, &mask, &relpath) {
            let matched: Vec<&RegionDecl> = regions
                .iter()
                .filter(|r| crate::lint::has_token(&site.args, r.konst))
                .collect();
            match matched.as_slice() {
                [] => errors.push(format!(
                    "[phase-region] {}:{}: parallel region has no declared REGION_* \
                     label — declare its effect set in crates/obs/src/phases.rs and \
                     pass the const as the region argument",
                    site.file, site.line
                )),
                [region] => {
                    if region.file != site.file {
                        errors.push(format!(
                            "[phase-region] {}:{}: region `{}` is declared for {} but \
                             used here — update the RegionDecl",
                            site.file, site.line, region.id, region.file
                        ));
                    }
                    used.insert(region.id);
                    errors.extend(lint_closure(&site, region));
                }
                many => errors.push(format!(
                    "[phase-region] {}:{}: call site matches {} region declarations; \
                     exactly one REGION_* label is required",
                    site.file,
                    site.line,
                    many.len()
                )),
            }
        }
    }
    for r in regions {
        if !used.contains(r.id) {
            errors.push(format!(
                "[phase-region] region `{}` is declared in crates/obs/src/phases.rs \
                 but has no call site in {} — stale declarations must be removed",
                r.id, r.file
            ));
        }
    }
    errors
}

/// Find `map_into(` call sites in stripped source and extract their
/// balanced argument text (calls span many lines).
fn call_sites(stripped: &str, mask: &[bool], relpath: &str) -> Vec<CallSite> {
    let mut out = Vec::new();
    let needle = "map_into";
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(needle) {
        let at = from + pos;
        from = at + needle.len();
        // Whole-token check: skip longer identifiers either side.
        let before = stripped[..at].chars().next_back().unwrap_or(' ');
        if before.is_ascii_alphanumeric() || before == '_' {
            continue;
        }
        let after = &stripped[at + needle.len()..];
        if after
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            continue;
        }
        let line = stripped[..at].matches('\n').count();
        if mask.get(line).copied().unwrap_or(false) {
            continue; // test code
        }
        let Some(open_rel) = after.find('(') else {
            continue;
        };
        if !after[..open_rel].trim().is_empty() {
            continue; // not a call
        }
        let args_start = at + needle.len() + open_rel + 1;
        let mut depth = 1i64;
        let mut end = args_start;
        for (i, c) in stripped[args_start..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = args_start + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        if depth != 0 {
            continue; // unbalanced (malformed source) — rustc will complain
        }
        out.push(CallSite {
            file: relpath.to_string(),
            line: line + 1,
            args: stripped[args_start..end].to_string(),
        });
    }
    out
}

/// Lint one region closure body against its declaration.
fn lint_closure(site: &CallSite, region: &RegionDecl) -> Vec<String> {
    let mut errors = Vec::new();
    let where_ = format!("{}:{}", site.file, site.line);
    // Locate the closure: the first `|` at paren depth 0 of the args.
    let mut depth = 0i64;
    let mut pipe = None;
    for (i, c) in site.args.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '|' if depth == 0 => {
                pipe = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(p0) = pipe else {
        errors.push(format!(
            "[phase-region] {where_}: region `{}` call passes no closure literal; \
             the lint needs the closure inline to check its writes",
            region.id
        ));
        return errors;
    };
    let rest = &site.args[p0 + 1..];
    let Some(p1) = rest.find('|') else {
        return errors; // unterminated params: rustc's problem
    };
    let params = &rest[..p1];
    let body = &rest[p1 + 1..];

    // Writable set: closure params, body locals, declared thread-locals.
    let mut writable: BTreeSet<String> = idents_in(params);
    for tl in region.thread_local {
        writable.insert((*tl).to_string());
    }
    collect_locals(body, &mut writable);

    // Declared captures must actually appear — stale decls are errors.
    for cap in region.shared_reads.iter().chain(region.thread_local) {
        if !crate::lint::has_token(body, cap) && !crate::lint::has_token(params, cap) {
            errors.push(format!(
                "[phase-region] {where_}: region `{}` declares capture `{cap}` but \
                 the closure never mentions it — remove the stale declaration",
                region.id
            ));
        }
    }

    for (tok, why) in DENY_TOKENS {
        if crate::lint::has_token(body, tok) {
            errors.push(format!(
                "[phase-region] {where_}: `{tok}` inside region `{}`: {why}",
                region.id
            ));
        }
    }

    for (target, how) in write_targets(body) {
        if !writable.contains(&target) {
            errors.push(format!(
                "[phase-region] {where_}: region `{}` {how} `{target}`, which is \
                 neither a closure-local nor a declared thread-local capture — \
                 shared mutable state in a parallel region must go through a \
                 declared ordered reduction (see crates/obs/src/phases.rs)",
                region.id
            ));
        }
    }
    errors
}

/// All identifier tokens in `text` (excluding keywords that appear in
/// patterns).
fn idents_in(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut cur = String::new();
    for c in text.chars().chain(" ".chars()) {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            let ident = std::mem::take(&mut cur);
            if !ident.starts_with(|c: char| c.is_ascii_digit())
                && !matches!(ident.as_str(), "mut" | "ref" | "move" | "_")
            {
                out.insert(ident);
            }
        }
    }
    out
}

/// Collect `let`-bound, `for`-bound, and nested-closure-bound names.
fn collect_locals(body: &str, out: &mut BTreeSet<String>) {
    for line in body.lines() {
        let t = line.trim_start();
        // `let PAT = …` / `if let PAT = …` / `while let PAT = …`
        if let Some(at) = crate::lint::token_at(t, "let") {
            let after = &t[at + 3..];
            let pat = after.split('=').next().unwrap_or(after);
            let pat = pat.split(':').next().unwrap_or(pat);
            out.extend(idents_in(pat));
        }
        // `for PAT in …`
        if let Some(at) = crate::lint::token_at(t, "for") {
            let after = &t[at + 3..];
            if let Some(pat) = after.split(" in ").next() {
                out.extend(idents_in(pat));
            }
        }
        // Nested closure params `|a, &(_, b)| …` — conservative: any
        // same-line pipe pair whose content looks like a parameter list.
        let pipes: Vec<usize> = line
            .char_indices()
            .filter(|&(_, c)| c == '|')
            .map(|(i, _)| i)
            .collect();
        for pair in pipes.chunks(2) {
            if let [a, b] = pair {
                let inner = &line[a + 1..*b];
                if inner.chars().all(|c| {
                    c.is_ascii_alphanumeric()
                        || c.is_whitespace()
                        || matches!(c, ',' | '&' | '(' | ')' | '_' | ':' | '<' | '>' | '\'')
                }) {
                    out.extend(idents_in(inner));
                }
            }
        }
    }
}

/// Extract `(root identifier, description)` for every write in `body`:
/// `&mut x`, assignment operators, and mutating method calls.
fn write_targets(body: &str) -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for line in body.lines() {
        // `&mut IDENT`
        let mut from = 0;
        while let Some(pos) = line[from..].find("&mut ") {
            let at = from + pos + 5;
            from = at;
            let ident: String = line[at..]
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                .collect();
            if !ident.is_empty() {
                out.push((ident, "takes `&mut` to"));
            }
        }
        // Assignments (plain and compound). Skip binding forms — their
        // `=` introduces a local, it does not mutate shared state.
        let before_op_has_let = |lhs: &str| crate::lint::has_token(lhs, "let");
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'=' {
                let prev = if i == 0 { b' ' } else { bytes[i - 1] };
                let next = bytes.get(i + 1).copied().unwrap_or(b' ');
                let compound =
                    matches!(prev, b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^')
                        || (i >= 2 && (&line[i - 2..i] == "<<" || &line[i - 2..i] == ">>"));
                let plain = !matches!(
                    prev,
                    b'=' | b'!'
                        | b'<'
                        | b'>'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                ) && next != b'='
                    && next != b'>';
                if (compound || plain) && !before_op_has_let(&line[..i]) {
                    let lhs_end = if compound { i - 1 } else { i };
                    if let Some(root) = root_ident_before(&line[..lhs_end]) {
                        out.push((root, "assigns to"));
                    }
                }
                i += 2;
            } else {
                i += 1;
            }
        }
        // Mutating method calls `root.….method(`.
        for method in MUT_METHODS {
            for at in crate::lint::token_positions_in(line, method) {
                if !line[at + method.len()..].starts_with('(') {
                    continue;
                }
                if !line[..at].ends_with('.') {
                    continue;
                }
                if let Some(root) = root_ident_before(&line[..at - 1]) {
                    out.push((root, "calls a mutating method on"));
                }
            }
        }
    }
    out
}

/// The root identifier of the path expression ending at the end of `s`
/// (e.g. `snap.link_load_bps[i]` → `snap`, `*acc` → `acc`).
fn root_ident_before(s: &str) -> Option<String> {
    let s = s.trim_end();
    let span_start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| {
            c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '[' | ']' | '(' | ')' | '*')
        })
        .last()
        .map(|(i, _)| i)?;
    let span = s[span_start..].trim_start_matches('*');
    let root: String = span
        .chars()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
        .collect();
    if root.is_empty() || root.starts_with(|c: char| c.is_ascii_digit()) {
        None
    } else {
        Some(root)
    }
}

/// Render the generated "parallel safety matrix" markdown block.
pub fn phases_matrix(phases: &[PhaseDecl], regions: &[RegionDecl]) -> String {
    use megadc::phases::ALL_EPOCH_RESOURCES;
    let mut out = String::new();
    out.push_str("### Parallel safety matrix (generated)\n\n");
    out.push_str(
        "Effect sets declared in `crates/obs/src/phases.rs`, regenerated by\n\
         `cargo run -p analyze -- --write` and verified by `--deny`.\n\
         Legend: `R` read · `W` direct write (serial phases only) · `O`\n\
         ordered reduce of per-thread partials · `·` untouched. `[P]`\n\
         marks phases whose closures run on the epoch pool.\n\n",
    );
    out.push_str("| phase |");
    for res in ALL_EPOCH_RESOURCES {
        out.push_str(&format!(" {} |", res.name()));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in ALL_EPOCH_RESOURCES {
        out.push_str("---|");
    }
    out.push('\n');
    for p in phases {
        let tag = if p.parallel { " [P]" } else { "" };
        out.push_str(&format!("| `{}`{tag} |", p.id));
        for res in ALL_EPOCH_RESOURCES {
            let mut cell = String::new();
            if p.reads.contains(&res) {
                cell.push('R');
            }
            if p.writes.contains(&res) {
                cell.push('W');
            }
            if p.reduces.iter().any(|r| r.resource == res) {
                cell.push('O');
            }
            if cell.is_empty() {
                cell.push('·');
            }
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out.push_str(
        "\n**Ordered reductions** (the only way a parallel phase reaches shared state):\n\n",
    );
    for p in phases {
        for r in p.reduces {
            out.push_str(&format!(
                "- `{}` → {}: {}\n",
                p.id,
                r.resource.name(),
                r.order.unwrap_or("commutative (order-free)")
            ));
        }
    }
    out.push_str(
        "\n**Parallel regions** (closures entering `EpochPool`, one row per call site):\n\n",
    );
    out.push_str("| region | phase | file | shared reads | thread-local |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in regions {
        let fmt_list = |xs: &[&str]| {
            if xs.is_empty() {
                "—".to_string()
            } else {
                xs.iter()
                    .map(|x| format!("`{x}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        out.push_str(&format!(
            "| `{}` | `{}` | {} | {} | {} |\n",
            r.id,
            r.phase,
            r.file,
            fmt_list(r.shared_reads),
            fmt_list(r.thread_local)
        ));
    }
    out
}

/// [`check_decls`] + [`lint_regions`] over the production declarations.
pub fn production_check(root: &Path) -> Vec<String> {
    let mut errors = check_decls(EPOCH_PHASES, REGIONS);
    errors.extend(lint_regions(root, REGIONS));
    errors
}

/// The production parallel safety matrix for DESIGN.md.
pub fn production_matrix() -> String {
    phases_matrix(EPOCH_PHASES, REGIONS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_decls_are_internally_consistent() {
        assert_eq!(check_decls(EPOCH_PHASES, REGIONS), Vec::<String>::new());
    }

    #[test]
    fn write_target_extraction() {
        let body = "\n    let mut part = P::default();\n    part.unserved.push((i, v));\n    snap.link_load_bps[l.index()] += per_link;\n    *acc.entry(k).or_insert(0.0) += vd;\n    total = total + 1.0;\n";
        let targets: Vec<String> = write_targets(body).into_iter().map(|(t, _)| t).collect();
        assert!(targets.contains(&"part".to_string()));
        assert!(targets.contains(&"snap".to_string()));
        assert!(targets.contains(&"acc".to_string()));
        assert!(targets.contains(&"total".to_string()));
        // `let` bindings are not writes.
        assert!(!targets.contains(&"P".to_string()));
    }

    #[test]
    fn locals_cover_let_for_and_nested_closures() {
        let body = "\n    let mut part = P::default();\n    for (vip, share) in shares {\n        let links: Vec<_> = st.links().map(|l| l.id).collect();\n    }\n";
        let mut locals = BTreeSet::new();
        collect_locals(body, &mut locals);
        for name in ["part", "vip", "share", "links", "l"] {
            assert!(locals.contains(name), "missing local {name}");
        }
        assert!(!locals.contains("st"));
    }

    #[test]
    fn root_ident_walks_path_expressions() {
        assert_eq!(
            root_ident_before("        snap.link_load_bps[i]"),
            Some("snap".into())
        );
        assert_eq!(root_ident_before("*acc"), Some("acc".into()));
        assert_eq!(root_ident_before("   "), None);
    }

    #[test]
    fn matrix_mentions_every_phase_and_region() {
        let m = production_matrix();
        for p in EPOCH_PHASES {
            assert!(m.contains(p.id), "matrix missing phase {}", p.id);
        }
        for r in REGIONS {
            assert!(m.contains(r.file), "matrix missing region file {}", r.file);
        }
        assert!(m.contains("[P]"));
    }

    #[test]
    fn commutativity_check_fires_on_orderless_noncommutative_reduce() {
        use megadc::phases::{EpochResource, ReduceDecl};
        let bad = [PhaseDecl {
            id: "demo",
            parallel: true,
            reads: &[],
            writes: &[],
            reduces: &[ReduceDecl {
                resource: EpochResource::Snapshot,
                order: None,
                commutative: false,
            }],
            where_: "test",
        }];
        let errs = check_decls(&bad, &[]);
        assert!(
            errs.iter().any(|e| e.contains("[phase-commute]")),
            "{errs:?}"
        );
    }
}
