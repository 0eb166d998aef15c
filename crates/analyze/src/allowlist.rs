//! The allowlist / ratchet file (`crates/analyze/allowlist.txt`).
//!
//! Plain line-based format, parsed by hand (the workspace has no
//! serialization framework):
//!
//! ```text
//! # comment
//! allow <rule> <path-relative-to-root> <count>
//! ratchet panicking <crate> <count>
//! ```
//!
//! * `allow` — up to `<count>` findings of `<rule>` in `<path>` are
//!   vetted. More is an error; fewer is a warning asking you to lower
//!   the count (the ratchet workflow).
//! * `ratchet panicking` — the per-crate baseline for the `panicking`
//!   rule. The count can only go down: exceeding it fails, beating it
//!   warns until the baseline is lowered to match.

use std::collections::BTreeMap;

/// Parsed allowlist.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    /// `(rule, path) -> allowed count`.
    pub allows: BTreeMap<(String, String), usize>,
    /// `crate -> panicking baseline`.
    pub ratchets: BTreeMap<String, usize>,
}

impl Allowlist {
    /// Parse the file contents; returns `Err` with a line-numbered
    /// message on malformed input.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut al = Allowlist::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let lineno = idx + 1;
            match parts.as_slice() {
                ["allow", rule, path, count] => {
                    let n: usize = count
                        .parse()
                        .map_err(|_| format!("allowlist line {lineno}: bad count {count:?}"))?;
                    if al
                        .allows
                        .insert((rule.to_string(), path.to_string()), n)
                        .is_some()
                    {
                        return Err(format!(
                            "allowlist line {lineno}: duplicate allow for {rule} {path}"
                        ));
                    }
                }
                ["ratchet", "panicking", krate, count] => {
                    let n: usize = count
                        .parse()
                        .map_err(|_| format!("allowlist line {lineno}: bad count {count:?}"))?;
                    if al.ratchets.insert(krate.to_string(), n).is_some() {
                        return Err(format!(
                            "allowlist line {lineno}: duplicate ratchet for crate {krate}"
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "allowlist line {lineno}: expected `allow <rule> <path> <count>` or \
                         `ratchet panicking <crate> <count>`, got {line:?}"
                    ));
                }
            }
        }
        Ok(al)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allow_and_ratchet() {
        let al = Allowlist::parse(
            "# header\nallow wall-clock crates/core/src/pod.rs 1\nratchet panicking core 90\n",
        )
        .unwrap();
        assert_eq!(
            al.allows
                .get(&("wall-clock".into(), "crates/core/src/pod.rs".into())),
            Some(&1)
        );
        assert_eq!(al.ratchets.get("core"), Some(&90));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Allowlist::parse("allow x\n").is_err());
        assert!(Allowlist::parse("ratchet panicking core nine\n").is_err());
        assert!(
            Allowlist::parse("allow r p 1\nallow r p 2\n").is_err(),
            "duplicates must be rejected"
        );
    }
}
