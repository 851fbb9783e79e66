//! The workspace's one JSON dialect: a value model, a deterministic
//! encoder and one parser. Journal lines, knowledge-store records and
//! gadt-serve frames all go through it, so a line one of them accepts is
//! a line every other accepts. Std-only by design — the build
//! environment has no registry access, so no serde.
//!
//! The grammar is standard JSON with two refinements: a `\u` escape is
//! exactly four hex digits and may not name a surrogate code point (so
//! every decoded string is valid UTF-8 without pairing), and an integer
//! may carry leading zeros. Objects keep their pairs in insertion order
//! (a `Vec`, not a map), so encoding is deterministic by construction.

use std::fmt;

/// Escapes a string for use inside a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Real(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; pairs keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Deterministic compact encoding: no whitespace, object fields in
    /// insertion order, strings escaped with [`escape`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Real(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest round-trip formatting; it
                    // always contains a `.` or an exponent, so the value
                    // parses back as `Real`, never as `Int`.
                    write!(f, "{x:?}")
                } else {
                    // JSON has no NaN/inf literal; encode as null (the
                    // store never produces these).
                    write!(f, "null")
                }
            }
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Object(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Convenience constructor for an object literal.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A parse failure: the byte offset of the first error and what was
/// wrong there.
type Failure = (usize, String);

/// Parses `input` as one complete JSON value (object, array, string,
/// number, boolean, or null) with nothing but whitespace around it.
///
/// # Errors
/// Returns `(offset, message)` describing the first syntax error. The
/// message is built only on failure.
pub fn parse(input: &str) -> Result<Json, (usize, String)> {
    let mut p = Parser {
        src: input,
        b: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return p.fail("trailing characters after JSON value");
    }
    Ok(v)
}

/// Checks that `input` is one complete JSON value: [`parse`] with the
/// value dropped.
///
/// # Errors
/// Same as [`parse`].
pub fn validate(input: &str) -> Result<(), (usize, String)> {
    parse(input).map(|_| ())
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, msg: &str) -> Result<T, Failure> {
        Err((self.pos, msg.to_string()))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), Failure> {
        if self.eat(c) {
            Ok(())
        } else {
            self.fail(&format!("expected `{}`", c as char))
        }
    }

    /// Skips a run of ASCII digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self) -> Result<Json, Failure> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.fail("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, Failure> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.fail(&format!("expected `{lit}`"))
        }
    }

    fn object(&mut self) -> Result<Json, Failure> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            if !self.eat(b',') {
                self.expect(b'}')?;
                return Ok(Json::Object(pairs));
            }
        }
    }

    fn array(&mut self) -> Result<Json, Failure> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if !self.eat(b',') {
                self.expect(b']')?;
                return Ok(Json::Array(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, Failure> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return self.fail("invalid escape"),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.fail("control character in string"),
                Some(_) => {
                    // A run of plain characters, copied as one slice. It
                    // ends at an ASCII byte or the end of the input, so it
                    // holds whole UTF-8 characters.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    /// The `uXXXX` after a backslash: exactly four hex digits naming a
    /// scalar value, never a surrogate.
    fn unicode_escape(&mut self) -> Result<char, Failure> {
        self.pos += 1;
        let start = self.pos;
        let mut code = 0;
        for _ in 0..4 {
            let Some(digit) = self.peek().and_then(|d| char::from(d).to_digit(16)) else {
                return self.fail("invalid \\u escape");
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        char::from_u32(code).ok_or_else(|| (start, "surrogate \\u escape".to_string()))
    }

    fn number(&mut self) -> Result<Json, Failure> {
        let start = self.pos;
        self.eat(b'-');
        if !self.digits() {
            return self.fail("expected digits");
        }
        let mut fractional = false;
        if self.eat(b'.') {
            fractional = true;
            if !self.digits() {
                return self.fail("expected fraction digits");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return self.fail("expected exponent digits");
            }
        }
        let text = &self.src[start..self.pos];
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Real(x)),
            Err(_) => Err((start, "number out of range".to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    // Rejections, with their offsets and messages, are pinned in one
    // table that also drives gadt-store, gadt-serve's frames and store
    // recovery: `crates/serve/tests/framing.rs`.
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("-42"), Ok(Json::Int(-42)));
        assert_eq!(parse("2.5"), Ok(Json::Real(2.5)));
        assert_eq!(parse("1e3"), Ok(Json::Real(1000.0)));
        assert_eq!(parse(r#""a\nb""#), Ok(Json::Str("a\nb".into())));
        assert_eq!(
            parse(r#""\u00e9\u001f""#),
            Ok(Json::Str("\u{e9}\u{1f}".into()))
        );
        assert_eq!(
            parse(r#"[1,"x",{"k":false}]"#),
            Ok(Json::Array(vec![
                Json::Int(1),
                Json::Str("x".into()),
                Json::Object(vec![("k".into(), Json::Bool(false))]),
            ]))
        );
    }

    #[test]
    fn encoding_round_trips() {
        let v = obj(vec![
            ("k", Json::Str("report".into())),
            ("q", Json::Str("q(In a: 5)?\n\"x\"\\\u{1}".into())),
            ("vals", Json::Array(vec![Json::Int(7), Json::Real(0.5)])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let line = v.to_string();
        assert_eq!(parse(&line), Ok(v));
        // Encoding is a fixed point: parse → encode reproduces the bytes.
        assert_eq!(parse(&line).unwrap().to_string(), line);
    }

    #[test]
    fn unicode_strings_round_trip() {
        let v = Json::Str("π ≈ 3.14159 — ok".into());
        assert_eq!(parse(&v.to_string()), Ok(v));
        assert_eq!(parse(r#""Aé""#), Ok(Json::Str("Aé".into())));
    }

    #[test]
    fn multi_mib_strings_parse_in_linear_time() {
        // 3 MiB of mixed ASCII, multi-byte characters and escapes: a
        // per-character rescan of the rest of the input would take
        // minutes here.
        let text = "plain ascii, π ≈ 3.14, \"quoted\", tab\t, back\\slash\n".repeat(64 * 1024);
        assert!(text.len() > 3 << 20);
        let line = Json::Str(text.clone()).to_string();
        let started = std::time::Instant::now();
        assert_eq!(parse(&line), Ok(Json::Str(text)));
        let took = started.elapsed();
        assert!(took.as_secs() < 10, "parse took {took:?}");
    }

    #[test]
    fn real_encoding_is_round_trip_exact() {
        for x in [0.1, 1.0 / 3.0, -2.75, 1e-9, 12345.6789] {
            let enc = Json::Real(x).to_string();
            assert_eq!(parse(&enc), Ok(Json::Real(x)), "{enc}");
        }
        // Integral reals stay reals (the `.0` keeps the tag).
        assert_eq!(parse(&Json::Real(3.0).to_string()), Ok(Json::Real(3.0)));
    }
}
