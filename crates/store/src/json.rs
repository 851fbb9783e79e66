//! A minimal JSON *value* model with a parser and a deterministic
//! encoder — the on-disk vocabulary of the knowledge store.
//!
//! `gadt-obs` already owns a JSON validator (the store's corruption
//! detector) and an escaper; this module adds the piece the store needs
//! on top: parsing a validated line back into a value tree, and encoding
//! a value tree to the exact same bytes every time. Objects preserve
//! insertion order (a `Vec` of pairs, not a map), so encoding is
//! deterministic by construction. Std-only, like the rest of the
//! workspace.

use std::fmt;

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
    /// insertion order, strings escaped with [`gadt_obs::json::escape`].
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
            Json::Str(s) => write!(f, "\"{}\"", gadt_obs::json::escape(s)),
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
                    write!(f, "\"{}\":{v}", gadt_obs::json::escape(k))?;
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

/// Parses one complete JSON value (with nothing but whitespace around
/// it). Returns `None` on any syntax error — the store treats malformed
/// lines as corruption, so errors carry no detail here; run the line
/// through [`gadt_obs::json::validate`] for an offset and message.
pub fn parse(input: &str) -> Option<Json> {
    let mut p = Parser {
        src: input,
        b: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return None;
    }
    Some(v)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Option<Json> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(v)
        } else {
            None
        }
    }

    fn object(&mut self) -> Option<Json> {
        if !self.eat(b'{') {
            return None;
        }
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Some(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return None;
            }
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return if self.eat(b'}') {
                Some(Json::Object(pairs))
            } else {
                None
            };
        }
    }

    fn array(&mut self) -> Option<Json> {
        if !self.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return if self.eat(b']') {
                Some(Json::Array(items))
            } else {
                None
            };
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            self.pos += 1;
                            let hex = self.b.get(self.pos..self.pos + 4)?;
                            let hex = std::str::from_utf8(hex).ok()?;
                            let cp = u32::from_str_radix(hex, 16).ok()?;
                            // Surrogates would need pairing; the store's
                            // escaper only emits \u for control chars, so
                            // reject anything that is not a scalar value.
                            out.push(char::from_u32(cp)?);
                            self.pos += 3; // the loop's +1 covers the rest
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                c if c < 0x20 => return None,
                _ => {
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

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        self.eat(b'-');
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return None;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.eat(b'.') {
            fractional = true;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return None;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return None;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).ok()?;
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Some(Json::Int(n));
            }
        }
        text.parse::<f64>().ok().map(Json::Real)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null"), Some(Json::Null));
        assert_eq!(parse(" true "), Some(Json::Bool(true)));
        assert_eq!(parse("-42"), Some(Json::Int(-42)));
        assert_eq!(parse("2.5"), Some(Json::Real(2.5)));
        assert_eq!(parse("1e3"), Some(Json::Real(1000.0)));
        assert_eq!(parse(r#""a\nb""#), Some(Json::Str("a\nb".into())));
        assert_eq!(
            parse(r#"[1,"x",{"k":false}]"#),
            Some(Json::Array(vec![
                Json::Int(1),
                Json::Str("x".into()),
                Json::Object(vec![("k".into(), Json::Bool(false))]),
            ]))
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "\"open",
            "01x",
            "{} junk",
            "nul",
            "\"a\u{1}b\"",
            "\"a\nb\"",
            "\"π open",
            "\"tail\\",
        ] {
            assert_eq!(parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn encoding_round_trips() {
        let v = obj(vec![
            ("k", Json::Str("report".into())),
            ("q", Json::Str("q(In a: 5)?\n\"x\"\\".into())),
            ("vals", Json::Array(vec![Json::Int(7), Json::Real(0.5)])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let line = v.to_string();
        assert!(gadt_obs::json::validate(&line).is_ok(), "{line}");
        assert_eq!(parse(&line), Some(v.clone()));
        // Encoding is a fixed point: parse → encode reproduces the bytes.
        assert_eq!(parse(&line).unwrap().to_string(), line);
    }

    #[test]
    fn unicode_strings_round_trip() {
        let v = Json::Str("π ≈ 3.14159 — ok".into());
        assert_eq!(parse(&v.to_string()), Some(v));
        assert_eq!(parse(r#""Aé""#), Some(Json::Str("Aé".into())));
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
        assert_eq!(parse(&line), Some(Json::Str(text)));
        let took = started.elapsed();
        assert!(took.as_secs() < 10, "parse took {took:?}");
    }

    #[test]
    fn real_encoding_is_round_trip_exact() {
        for x in [0.1, 1.0 / 3.0, -2.75, 1e-9, 12345.6789] {
            let enc = Json::Real(x).to_string();
            assert_eq!(parse(&enc), Some(Json::Real(x)), "{enc}");
        }
        // Integral reals stay reals (the `.0` keeps the tag).
        assert_eq!(parse(&Json::Real(3.0).to_string()), Some(Json::Real(3.0)));
    }
}
