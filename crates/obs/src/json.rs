//! Minimal deterministic JSON: a hand-rolled writer for event lines and
//! a small recursive-descent parser for reading them back.
//!
//! The workspace has no serialization framework (the build is offline
//! and every dependency is vendored), so the event log format is
//! produced and consumed here directly. Determinism requirements: object keys are written in a fixed order by the caller,
//! floats use Rust's shortest-round-trip `Display` (never locale- or
//! platform-dependent), and non-finite floats are written as `null`.

/// A parsed JSON value. Objects preserve insertion order (a `Vec` of
/// pairs, not a map) so round-tripping is order-faithful.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v == v.trunc() && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    let ch = char::from_digit(digit, 16).unwrap_or('0');
                    out.push(ch);
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` to `out` as a JSON number via shortest-round-trip
/// `Display` (deterministic across platforms); non-finite becomes
/// `null`.
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{}` on f64 is Rust's shortest decimal that round-trips; it
        // never emits exponents or locale separators.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Parse one JSON document from `text` (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", want as char, *pos))
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(text, bytes, pos),
        Some(b'[') => parse_arr(text, bytes, pos),
        Some(b'"') => parse_str(text, bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(text, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(text, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(text, pos, "null", Json::Null),
        Some(_) => parse_num(text, bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(text: &str, pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if text[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = &text[start..*pos];
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {token:?} at byte {start}: {e}"))
}

fn parse_str(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chars = text[*pos..].char_indices();
    while let Some((off, c)) = chars.next() {
        match c {
            '"' => {
                *pos += off + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((esc_off, 'u')) => {
                    let hex_start = *pos + esc_off + 1;
                    let hex = text
                        .get(hex_start..hex_start + 4)
                        .ok_or_else(|| format!("truncated \\u escape at byte {hex_start}"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    // Consume the 4 hex digits from the iterator.
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => {
                    return Err(format!("bad escape {other:?} in string at byte {}", *pos));
                }
            },
            c => out.push(c),
        }
    }
    Err(format!("unterminated string at byte {}", *pos))
}

fn parse_arr(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(text, bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(text, bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let doc = r#"{"a":1,"b":[0.5,"x\n"],"c":{"d":null,"e":true}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let b = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(b[0].as_f64(), Some(0.5));
        assert_eq!(b[1].as_str(), Some("x\n"));
        assert_eq!(v.get("c").and_then(|c| c.get("d")), Some(&Json::Null));
    }

    #[test]
    fn string_escapes() {
        let mut out = String::new();
        write_str("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn float_display_roundtrips() {
        for v in [0.0, 1.0, 0.1, 1.0 / 3.0, 123456.789, -2.5e-7] {
            let mut out = String::new();
            write_f64(v, &mut out);
            let back = parse(&out).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn non_finite_is_null() {
        let mut out = String::new();
        write_f64(f64::NAN, &mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn parse_errors_are_errors() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("{}x").is_err());
    }
}
