//! Minimal flat-JSON encode/decode shared by the sweep journal and the
//! serving wire protocol.
//!
//! Both formats are **one flat JSON object per line** — string values,
//! bare numbers and booleans, no nesting. Keeping the codec this small
//! (and dependency-free) is deliberate: the journal parser must tolerate
//! a torn final line from a killed run, and the serving daemon must
//! never trust a client enough to need a full JSON tree. Anything
//! structured (timelines, matrices) is encoded as one delimited string
//! value by its owner.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasher;

/// `s` escaped for use inside a JSON string literal, as a `format!`
/// argument: `"`, `\` and control characters become escapes (`\n`,
/// `\t`, `\r` by name, the rest as `\u00XX`), everything else is kept.
/// The one JSON string spelling in the workspace.
pub struct JsonStr<'a>(pub &'a str);

impl std::fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_escaped(f, self.0)
    }
}

/// Writes `s` to `out`, escaped for use inside a JSON string literal.
#[inline]
fn write_escaped<W: std::fmt::Write>(out: &mut W, s: &str) -> std::fmt::Result {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        write_with_escapes(out, s)
    } else {
        out.write_str(s)
    }
}

/// [`write_escaped`] for a string that needs at least one escape, kept
/// out of line so the common path stays small.
#[cold]
#[inline(never)]
fn write_with_escapes<W: std::fmt::Write>(out: &mut W, s: &str) -> std::fmt::Result {
    let mut run = 0;
    for (i, c) in s.char_indices() {
        let escape = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\t' => "\\t",
            '\r' => "\\r",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{:04x}", c as u32)?;
        } else {
            out.write_str(escape)?;
        }
        run = i + c.len_utf8();
    }
    out.write_str(&s[run..])
}

/// Appends `v` in shortest-round-trip form, quoting non-finite values.
fn push_f64(out: &mut String, v: f64) {
    let _ = if v.is_finite() {
        write!(out, "{v:?}")
    } else {
        write!(out, "\"{v:?}\"")
    };
}

/// Read access to the fields of one parsed flat JSON object: the
/// borrowed [`FlatObject`] or the owned map [`parse_flat_json`] returns.
pub trait FlatFields {
    /// The raw value of `key` (string values unescaped, numbers and
    /// barewords verbatim); the last one when the key repeats.
    fn field(&self, key: &str) -> Option<&str>;
}

impl<S: BuildHasher> FlatFields for HashMap<String, String, S> {
    fn field(&self, key: &str) -> Option<&str> {
        self.get(key).map(String::as_str)
    }
}

/// One flat JSON object, tokenized in place: keys and values borrow
/// from the line and are owned only when they hold an escape.
#[derive(Debug)]
pub struct FlatObject<'a> {
    fields: Vec<(Cow<'a, str>, Cow<'a, str>)>,
}

impl<'a> FlatObject<'a> {
    /// Parses one flat JSON object. Returns `None` on any malformed
    /// input — a torn journal line from a killed run, or a garbage
    /// request line from a misbehaving client, is skipped, not fatal.
    /// Accepts exactly the lines [`parse_flat_json`] accepts.
    pub fn parse(line: &'a str) -> Option<Self> {
        let s = line.trim();
        let b = s.as_bytes();
        let mut i = skip_ws(b, 0);
        if b.get(i) != Some(&b'{') {
            return None;
        }
        // room for a whole `run` request line (22 fields)
        let mut fields = Vec::with_capacity(32);
        i += 1;
        loop {
            i = skip_ws(b, i);
            if b.get(i) == Some(&b'}') {
                return Some(FlatObject { fields });
            }
            let key = parse_string(s, &mut i)?;
            i = skip_ws(b, i);
            if b.get(i) != Some(&b':') {
                return None;
            }
            i = skip_ws(b, i + 1);
            let value = if b.get(i) == Some(&b'"') {
                parse_string(s, &mut i)?
            } else {
                let start = i;
                while i < b.len() && !matches!(b[i], b',' | b'}') && !b[i].is_ascii_whitespace() {
                    i += 1;
                }
                // both ends sit next to ASCII bytes: char boundaries
                Cow::Borrowed(&s[start..i])
            };
            fields.push((key, value));
            i = skip_ws(b, i);
            match b.get(i) {
                Some(&b',') => i += 1,
                Some(&b'}') => return Some(FlatObject { fields }),
                _ => return None,
            }
        }
    }

    /// The raw value of `key`; the last one when the key repeats.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_ref())
    }
}

impl FlatFields for FlatObject<'_> {
    fn field(&self, key: &str) -> Option<&str> {
        self.get(key)
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// The string literal starting at `s[*i]` (which must be `"`), unescaped;
/// borrowed unless it holds an escape. Leaves `*i` past the closing quote.
#[inline]
fn parse_string<'a>(s: &'a str, i: &mut usize) -> Option<Cow<'a, str>> {
    let b = s.as_bytes();
    if b.get(*i) != Some(&b'"') {
        return None;
    }
    let start = *i + 1;
    let special = start + b[start..].iter().position(|&c| c == b'"' || c == b'\\')?;
    if b[special] == b'"' {
        *i = special + 1;
        return Some(Cow::Borrowed(&s[start..special]));
    }
    unescape(s, start, special, i)
}

/// The rest of [`parse_string`] once an escape shows up at `special`:
/// kept out of line so the borrowed path stays small.
#[cold]
#[inline(never)]
fn unescape<'a>(s: &'a str, start: usize, special: usize, i: &mut usize) -> Option<Cow<'a, str>> {
    let b = s.as_bytes();
    let mut out = String::with_capacity(special - start + 16);
    out.push_str(&s[start..special]);
    *i = special;
    loop {
        match b.get(*i)? {
            b'"' => {
                *i += 1;
                return Some(Cow::Owned(out));
            }
            b'\\' => {
                *i += 1;
                match b.get(*i)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*i + 1..*i + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *i += 4;
                    }
                    _ => return None,
                }
                *i += 1;
            }
            _ => {
                // a run of plain bytes up to the next quote or escape;
                // both are ASCII, so the run ends on a char boundary
                let run = b[*i..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *i + n);
                out.push_str(&s[*i..run]);
                *i = run;
            }
        }
    }
}

/// Parses one flat JSON object into raw key → value strings (string
/// values unescaped, numbers/barewords verbatim; the last value wins
/// when a key repeats). Returns `None` on any malformed input, exactly
/// as [`FlatObject::parse`] does.
pub fn parse_flat_json(line: &str) -> Option<HashMap<String, String>> {
    let object = FlatObject::parse(line)?;
    let mut map = HashMap::with_capacity(object.fields.len());
    for (k, v) in object.fields {
        map.insert(k.into_owned(), v.into_owned());
    }
    Some(map)
}

/// Incrementally builds one flat JSON object line. Purely syntactic —
/// callers own field order (the journal relies on it for byte-stable
/// lines). Escapes and numbers are written straight into the line.
#[derive(Debug, Default)]
pub struct FlatJsonBuilder {
    buf: String,
}

impl FlatJsonBuilder {
    /// An empty object.
    pub fn new() -> Self {
        FlatJsonBuilder {
            buf: String::with_capacity(256),
        }
    }

    fn key(&mut self, key: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf.push('"');
        let _ = write_escaped(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Appends a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        let _ = write_escaped(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Appends a `u64` as a string field of 16 lowercase hex digits (the
    /// spelling of identity hashes).
    pub fn hex64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{value:016x}\"");
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends an f64 field in shortest-round-trip form (non-finite
    /// values quoted).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        push_f64(&mut self.buf, value);
        self
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            return "{}".to_string();
        }
        let mut out = std::mem::take(&mut self.buf);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_through_parser() {
        let line = FlatJsonBuilder::new()
            .str("op", "run")
            .str("quote", "a\"b\\c\nd")
            .u64("n", 42)
            .f64("x", 0.1234567890123456)
            .f64("inf", f64::INFINITY)
            .finish();
        let m = parse_flat_json(&line).expect("parses");
        assert_eq!(m["op"], "run");
        assert_eq!(m["quote"], "a\"b\\c\nd");
        assert_eq!(m["n"], "42");
        assert_eq!(m["x"].parse::<f64>().unwrap(), 0.1234567890123456);
        assert_eq!(m["inf"], "inf");
    }

    #[test]
    fn numbers_are_spelled_as_format_spells_them() {
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let line = FlatJsonBuilder::new().u64("n", v).hex64("h", v).finish();
            assert_eq!(line, format!("{{\"n\":{v},\"h\":\"{v:016x}\"}}"));
        }
        for (v, spelled) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (0.1, "0.1"),
            (1e-7, "1e-7"),
            (1e300, "1e300"),
            (f64::NAN, "\"NaN\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            let line = FlatJsonBuilder::new().f64("x", v).finish();
            assert_eq!(line, format!("{{\"x\":{spelled}}}"));
        }
    }

    #[test]
    fn escapes_match_the_json_spelling() {
        for (raw, escaped) in [
            ("plain", "plain"),
            ("a\"b", "a\\\"b"),
            ("back\\slash", "back\\\\slash"),
            ("\n\t\r", "\\n\\t\\r"),
            ("\u{1}é\u{1f}", "\\u0001é\\u001f"),
        ] {
            let line = FlatJsonBuilder::new().str("s", raw).finish();
            assert_eq!(line, format!("{{\"s\":\"{escaped}\"}}"));
        }
    }

    #[test]
    fn borrowed_fields_stay_borrowed_and_repeats_resolve_to_the_last() {
        let line = r#"{"a":"x","b":7,"a":"y\nz"}"#;
        let object = FlatObject::parse(line).expect("parses");
        assert_eq!(object.fields.len(), 3);
        assert!(matches!(object.fields[0].1, Cow::Borrowed("x")));
        assert!(matches!(object.fields[2].1, Cow::Owned(_)));
        assert_eq!(object.get("a"), Some("y\nz"));
        assert_eq!(object.get("b"), Some("7"));
        assert_eq!(object.get("c"), None);
        let map = parse_flat_json(line).expect("parses");
        assert_eq!(map.field("a"), object.field("a"));
    }

    #[test]
    fn empty_builder_is_an_empty_object() {
        assert_eq!(FlatJsonBuilder::new().finish(), "{}");
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn malformed_lines_parse_to_none() {
        for bad in ["", "{", "{\"a\":1", "[1]", "{\"a\"}", "{\"a\":\"b"] {
            assert!(parse_flat_json(bad).is_none(), "{bad:?}");
        }
    }
}
