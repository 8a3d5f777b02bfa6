//! A strict JSON reader (RFC 8259, std only) for the integration tests
//! that check written artifacts: a document a JSON reader would refuse
//! (a trailing comma, trailing bytes, a raw control character) fails
//! to parse. Included by `serve_smoke.rs` and by the bench crate's
//! `repro_properties.rs` through `#[path]`.

/// A JSON value (RFC 8259, nothing more lenient).
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The number as written, so integers compare exactly.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, at: 0 };
        let value = p.value()?;
        p.ws();
        if p.at == text.len() {
            Ok(value)
        } else {
            Err(p.error("trailing bytes"))
        }
    }

    /// The value of `key`; the last one when the key repeats, as JSON
    /// readers resolve it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// A recursive-descent reader over `s`; `at` stays on a char boundary.
struct Parser<'a> {
    s: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.ws();
                        if !self.eat(b':') {
                            return Err(self.error("expected `:`"));
                        }
                        fields.push((key, self.value()?));
                        self.ws();
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.error("expected `,` or `}`"));
                        }
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.error("expected `,` or `]`"));
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, value) in [
                    ("null", Json::Null),
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                ] {
                    if self.s[self.at..].starts_with(word) {
                        self.at += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let Some(c) = self.s[self.at..].chars().next() else {
                return Err(self.error("unterminated string"));
            };
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.at += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    self.at += 1;
                    out.push(escaped);
                }
                c if c < ' ' => return Err(self.error("raw control character in a string")),
                c => out.push(c),
            }
        }
    }

    /// The code point after `\u`, joining a surrogate pair; a lone
    /// surrogate reads as U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xd800..0xdc00).contains(&high) && self.s[self.at..].starts_with("\\u") {
            let pair_at = self.at;
            self.at += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let code = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(code).expect("a surrogate pair is a scalar value"));
            }
            self.at = pair_at;
        }
        Ok(char::from_u32(high).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.s.get(self.at..self.at + 4).unwrap_or("");
        if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("expected four hex digits"));
        }
        self.at += 4;
        Ok(u32::from_str_radix(digits, 16).expect("hex digits"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Json::Num(self.s[start..self.at].to_string()))
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at > start {
            Ok(())
        } else {
            Err(self.error("expected a digit"))
        }
    }
}
