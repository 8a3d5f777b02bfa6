//! A seeded differential test of `flatjson::parse_flat_json` against a
//! frozen copy of the original `HashMap`-building parser.
//!
//! The journal (`--resume`), the serving protocol and the benchmark all
//! read lines through `parse_flat_json`, so any rewrite of it must keep
//! every accept/reject decision and every decoded key and value. The
//! generator below produces well-formed objects, then truncates and
//! mutates them: escapes (including `\uXXXX`, surrogates and bad hex),
//! multi-byte UTF-8, whitespace, bare numbers, duplicate keys (the last
//! one wins) and malformed lines (which must parse to `None`).

use std::collections::HashMap;

use graphmaze_core::flatjson::{parse_flat_json, FlatJsonBuilder};
use graphmaze_core::graph::rng::splitmix64;

/// The parser as it stood before the borrowing tokenizer, kept verbatim
/// as the reference.
fn reference_parse(line: &str) -> Option<HashMap<String, String>> {
    let b = line.trim().as_bytes();
    let mut i = 0usize;
    let skip_ws = |b: &[u8], i: &mut usize| {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |b: &[u8], i: &mut usize| -> Option<String> {
        if b.get(*i) != Some(&b'"') {
            return None;
        }
        *i += 1;
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Some(out);
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
                c if c < 0x80 => {
                    out.push(c as char);
                    *i += 1;
                }
                _ => {
                    // multi-byte UTF-8: copy the full scalar
                    let s = std::str::from_utf8(&b[*i..]).ok()?;
                    let ch = s.chars().next()?;
                    out.push(ch);
                    *i += ch.len_utf8();
                }
            }
        }
        None
    };
    let parse_bare = |b: &[u8], i: &mut usize| -> String {
        let start = *i;
        while *i < b.len() && !matches!(b[*i], b',' | b'}') && !b[*i].is_ascii_whitespace() {
            *i += 1;
        }
        String::from_utf8_lossy(&b[start..*i]).into_owned()
    };

    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    let mut map = HashMap::new();
    loop {
        skip_ws(b, &mut i);
        if b.get(i) == Some(&b'}') {
            return Some(map);
        }
        let key = parse_string(b, &mut i)?;
        skip_ws(b, &mut i);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(b, &mut i);
        let value = if b.get(i) == Some(&b'"') {
            parse_string(b, &mut i)?
        } else {
            parse_bare(b, &mut i)
        };
        map.insert(key, value);
        skip_ws(b, &mut i);
        match b.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => return Some(map),
            _ => return None,
        }
    }
}

/// A SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(graphmaze_core::graph::rng::GOLDEN);
        z
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Pieces of a string literal's body, as they appear on the wire.
const STRING_PIECES: &[&str] = &[
    "a", "Z", "key", "0", " ", "\\\"", "\\\\", "\\/", "\\n", "\\t", "\\r", "\\b", "\\u0041",
    "\\u00e9", "\\u20AC", "\\u0000", "\\ud83d", "\\u+041", "\\uzzzz", "\\u12", "\\x", "é", "€",
    "😀", "\u{7f}", "\u{1}", ":", ",", "{", "}",
];

/// Keys come from a small pool so duplicates are common.
const KEYS: &[&str] = &["op", "id", "a", "spec", "k\\u0065y", "é", ""];

const BARE: &[&str] = &[
    "1", "-0", "42", "3.25", "1e-7", "-1.5E+3", "true", "false", "null", "inf", "NaN", "", "x\"y",
    "1:2", "{",
];

const WS: &[&str] = &["", "", "", " ", "  ", "\t", "\n", "\r\n", " \t "];

/// Edge padding: `str::trim` strips Unicode whitespace around the line,
/// the inner skips only ASCII whitespace.
const PAD: &[&str] = &["", "", " ", "\n", "\u{2003}", "\u{a0}", "\t\r\n"];

const NOISE: &[&str] = &["\"", "\\", ":", ",", "{", "}", " ", "a", "é", "\u{0}", "]"];

fn string_literal(rng: &mut Rng) -> String {
    let mut s = String::from("\"");
    for _ in 0..rng.below(5) {
        s.push_str(rng.pick(STRING_PIECES));
    }
    s.push('"');
    s
}

fn object(rng: &mut Rng) -> String {
    let mut s = String::new();
    s.push_str(rng.pick(PAD));
    s.push('{');
    let fields = rng.below(7);
    for f in 0..fields {
        if f > 0 {
            s.push_str(rng.pick(WS));
            s.push(',');
        }
        s.push_str(rng.pick(WS));
        if rng.below(4) == 0 {
            s.push_str(&string_literal(rng));
        } else {
            s.push('"');
            s.push_str(rng.pick(KEYS));
            s.push('"');
        }
        s.push_str(rng.pick(WS));
        s.push(':');
        s.push_str(rng.pick(WS));
        if rng.below(2) == 0 {
            s.push_str(&string_literal(rng));
        } else {
            s.push_str(rng.pick(BARE));
        }
    }
    s.push_str(rng.pick(WS));
    // an occasional trailing comma
    if fields > 0 && rng.below(8) == 0 {
        s.push(',');
    }
    s.push('}');
    // occasionally trailing bytes after the closing brace
    if rng.below(8) == 0 {
        s.push_str(rng.pick(NOISE));
    }
    s.push_str(rng.pick(PAD));
    s
}

/// A char-boundary-safe prefix of `s`.
fn truncate(rng: &mut Rng, s: &str) -> String {
    let bounds: Vec<usize> = (0..=s.len()).filter(|&i| s.is_char_boundary(i)).collect();
    s[..bounds[rng.below(bounds.len())]].to_string()
}

/// `s` with one char replaced by, or one noise piece inserted at, a
/// random position.
fn mutate(rng: &mut Rng, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return rng.pick(NOISE).to_string();
    }
    let at = rng.below(chars.len());
    let noise = rng.pick(NOISE);
    let mut out = String::new();
    for (i, c) in chars.iter().enumerate() {
        if i == at {
            out.push_str(noise);
            if rng.below(2) == 0 {
                continue;
            }
        }
        out.push(*c);
    }
    out
}

fn check(line: &str) -> bool {
    let expected = reference_parse(line);
    assert_eq!(parse_flat_json(line), expected, "line {line:?}");
    expected.is_some()
}

#[test]
fn parse_flat_json_matches_the_reference_on_seeded_lines() {
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for seed in 0..3_000u64 {
        let mut rng = Rng(seed);
        let whole = object(&mut rng);
        let once = mutate(&mut rng, &whole);
        let variants = [
            whole.clone(),
            truncate(&mut rng, &whole),
            mutate(&mut rng, &whole),
            mutate(&mut rng, &once),
        ];
        for line in &variants {
            if check(line) {
                parsed += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // the generator must exercise both outcomes in earnest
    assert!(parsed > 3_000, "{parsed} parsed");
    assert!(rejected > 3_000, "{rejected} rejected");
}

#[test]
fn parse_flat_json_matches_the_reference_on_fixed_lines() {
    let built = FlatJsonBuilder::new()
        .str("op", "run")
        .str("quote", "a\"b\\c\nd\te\r\u{1}é😀")
        .u64("n", 42)
        .f64("x", 0.1)
        .f64("inf", f64::INFINITY)
        .finish();
    let cases = [
        built.as_str(),
        "",
        "{}",
        "  {}  ",
        "{}trailing",
        "{,}",
        "{\"a\":1,}",
        "{\"a\":1,\"a\":2}",
        "{\"a\":\"x\",\"a\":7,\"b\":\"\"}",
        "{\"a\" : \"b\" , \"c\" :\t3 }",
        "{\"a\":}",
        "{\"a\":,\"b\":1}",
        "{\"a\":\"\\u00e9\\u20ac\"}",
        "{\"a\":\"\\ud800\"}",
        "{\"a\":\"\\u+041\"}",
        "{\"a\":\"\\u004\"}",
        "{\"a\":\"\\u00\"}",
        "{\"a\":\"\\q\"}",
        "{\"a\":\"b\\",
        "{\"\\u0061\":1}",
        "{\"a\":1 2}",
        "{\"a\"1}",
        "{a:1}",
        "[1]",
        "{\"a\":\"é€😀\"}",
        "\u{2003}{\"a\":1}\u{a0}",
        "{\"op\":\"run\",\"id\":\"q0\",\"spec\":\"rmat/s7/e16/x42\",\"nodes\":2,\"factor\":1.0}",
    ];
    for line in cases {
        check(line);
    }
}
