//! Comment/string stripping and `#[cfg(test)]` region detection.
//!
//! The lint pass is a token-level scanner, not a rustc plugin, so it
//! must not trip over rule patterns quoted in comments, strings or doc
//! text, and must skip test code (the determinism and no-panic rules
//! apply to control paths, not to assertions about them).

/// Replace comments and string/char literal *contents* with spaces,
/// preserving every newline and the byte length of each line, so line
/// numbers and column offsets in findings match the original source.
pub fn strip(source: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let bytes: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or('\0');
        match st {
            St::Code => match c {
                '/' if next == '/' => {
                    st = St::LineComment;
                    out.push(' ');
                }
                '/' if next == '*' => {
                    st = St::BlockComment(1);
                    out.push(' ');
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                }
                'r' if next == '"' || next == '#' => {
                    // Possible raw string r"…" / r#"…"# — count hashes.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j;
                        st = St::RawStr(hashes);
                    } else {
                        out.push(c);
                    }
                }
                '\'' => {
                    // Char literal or lifetime. A literal is '\…' or 'x'
                    // (single char followed by a closing quote); anything
                    // else is a lifetime and stays code.
                    if next == '\\' || bytes.get(i + 2) == Some(&'\'') {
                        st = St::Char;
                        out.push('\'');
                    } else {
                        out.push('\'');
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '/' && next == '*' {
                    st = St::BlockComment(depth + 1);
                    out.push(' ');
                    i += 1;
                } else if c == '*' && next == '/' {
                    if depth == 1 {
                        st = St::Code;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                    out.push(' ');
                    i += 1;
                }
            }
            St::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next != '\0' {
                        out.push(if next == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
                '"' => {
                    st = St::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    // Closing quote must be followed by `hashes` hashes.
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j - 1;
                        st = St::Code;
                    } else {
                        out.push(' ');
                    }
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Char => match c {
                '\\' => {
                    out.push(' ');
                    if next != '\0' {
                        out.push(' ');
                        i += 1;
                    }
                }
                '\'' => {
                    st = St::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Per-line flags: is this line part of a `#[cfg(test)]` item?
///
/// Works on *stripped* source. The attribute covers the item it sits
/// on: a braced item (a module, fn, impl, struct, or a statement with a
/// block) up to its closing brace, or a one-line item that ends in `;`
/// or `,` (a field, a `use`, a `mod name;`). Attribute and item may sit
/// on separate lines (rustfmt style), with other attributes between.
pub fn test_line_mask(stripped: &str) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    #[derive(Clone, Copy, PartialEq)]
    enum Item {
        /// Outside any test item.
        Out,
        /// After the attribute, before the item; the count is the `[`
        /// nesting inside a further attribute.
        Attr(u32),
        /// In the item's head, before its body brace or its closing `;`
        /// or `,`; the count is the `(`/`[` nesting.
        Head(u32),
        /// In the item's body, opened at this brace depth.
        Body(i64),
    }
    let mut mask = Vec::new();
    let mut depth: i64 = 0;
    let mut st = Item::Out;
    for line in stripped.lines() {
        let mut test = st != Item::Out;
        let mut i = 0;
        while i < line.len() {
            if st == Item::Out && line[i..].starts_with(ATTR) {
                st = Item::Attr(0);
                test = true;
                i += ATTR.len();
                continue;
            }
            let c = line.as_bytes()[i];
            if let Item::Attr(n) = st {
                st = match (n, c) {
                    (_, b'[') => Item::Attr(n + 1),
                    (_, b']') => Item::Attr(n.saturating_sub(1)),
                    (0, b'#') => st,
                    (0, c) if !c.is_ascii_whitespace() => Item::Head(0),
                    _ => st,
                };
            }
            match (st, c) {
                (Item::Head(_), b'{') => {
                    st = Item::Body(depth);
                    depth += 1;
                }
                (Item::Head(n), b'(' | b'[') => st = Item::Head(n + 1),
                (Item::Head(n), b')' | b']') => st = Item::Head(n.saturating_sub(1)),
                (Item::Head(0), b';' | b',') => st = Item::Out,
                (_, b'{') => depth += 1,
                (_, b'}') => {
                    depth -= 1;
                    if st == Item::Body(depth) {
                        st = Item::Out;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        mask.push(test);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let src = "let a = 1; // HashMap here\nlet b = \"HashMap\"; /* f == 0.0 */ let c = 2;\n";
        let s = strip(src);
        assert!(!s.contains("HashMap"), "{s}");
        assert!(!s.contains("0.0"), "{s}");
        assert!(s.contains("let c = 2;"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn strips_raw_strings_and_chars() {
        let src = "let a = r#\"unwrap()\"#; let b = '\\u{41}'; let c: &'static str = \"x\";";
        let s = strip(src);
        assert!(!s.contains("unwrap"), "{s}");
        assert!(s.contains("&'static str"), "lifetime mangled: {s}");
    }

    #[test]
    fn test_mask_covers_cfg_test_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let mask = test_line_mask(&strip(src));
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_mask_covers_any_cfg_test_item() {
        let src = "pub struct S {\n\
                   \x20   a: u32,\n\
                   \x20   #[cfg(test)]\n\
                   \x20   pub(crate) log: Option<Vec<(u32, u32)>>,\n\
                   \x20   b: u32,\n\
                   }\n\
                   impl S {\n\
                   \x20   #[cfg(test)]\n\
                   \x20   #[allow(dead_code)]\n\
                   \x20   pub fn set(\n\
                   \x20       &mut self,\n\
                   \x20   ) -> u32 {\n\
                   \x20       self.a\n\
                   \x20   }\n\
                   \x20   pub fn get(&self) -> u32 {\n\
                   \x20       #[cfg(test)] if let Some(l) = &self.log { l.len(); }\n\
                   \x20       self.b\n\
                   \x20   }\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod reference;\n\
                   pub fn after() {}\n";
        let mask = test_line_mask(&strip(src));
        let test_lines: Vec<usize> = (0..mask.len())
            .filter(|&i| mask[i])
            .map(|i| i + 1)
            .collect();
        // The field, the fn with its attributes and multi-line head, the
        // one-line statement and the out-of-line module; nothing else.
        assert_eq!(test_lines, vec![3, 4, 8, 9, 10, 11, 12, 13, 14, 16, 20, 21]);
    }
}
