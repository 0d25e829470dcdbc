//! Minimal JSON tree, parser, and serializer for the wire protocol.
//!
//! The build environment has no registry access, so instead of serde the
//! daemon uses this small hand-rolled implementation. It supports the full
//! JSON grammar except that numbers are kept as `f64` (integral values are
//! serialized without a fractional part) and object keys keep first-wins
//! semantics on duplicates.  Arrays and objects nest at most [`MAX_DEPTH`]
//! deep: the parser is recursive, and a request line of a few hundred
//! kilobytes of `[` would otherwise overflow the stack of the thread reading
//! it and abort the daemon.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts.  A request nests
/// four levels at most (`batch` → `requests` → `corpus` → `programs`).
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Integer constructor (stored as `f64`, serialized without fraction).
    pub fn int(n: impl Into<i64>) -> Json {
        Json::Num(n.into() as f64)
    }

    /// Look up a field of an object; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parse a complete JSON document from `text`.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object with `f`, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, ParseError>) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            map.entry(key).or_insert(val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not recombined; the
                            // protocol never emits them.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape in
                    // one slice.  Both delimiters are ASCII, so the run
                    // ends on a character boundary of the input `&str`.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let src = r#"{"cmd":"load","text":"do i = 1, n\n  a[i] = 0\nend do","n":3,"f":1.5,"ok":true,"xs":[1,2,null]}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("load"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        let reparsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn escapes_and_errors() {
        let v = Json::parse(r#""a\"b\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\nA"));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        // Multi-byte runs around escapes, `\u`, and rejected escapes.
        let v = Json::parse(r#""é\u0041日本\\ü\/""#).unwrap();
        assert_eq!(v.as_str(), Some("éA日本\\ü/"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(r#""\q""#).unwrap_err().msg, "bad escape");
        assert_eq!(Json::parse(r#""\é""#).unwrap_err().msg, "bad escape");
        assert_eq!(
            Json::parse(r#""\u12"#).unwrap_err().msg,
            "truncated \\u escape"
        );
        assert_eq!(Json::parse(r#""\u12é""#).unwrap_err().msg, "bad \\u escape");
        assert_eq!(Json::parse("\"abc").unwrap_err().msg, "unterminated string");
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.pos, err.msg), (MAX_DEPTH, "nesting too deep"));
        // A line of brackets far past any stack, objects interleaved.
        let bomb = r#"{"a":["#.repeat(200_000);
        assert_eq!(Json::parse(&bomb).unwrap_err().msg, "nesting too deep");
    }

    /// String parsing is linear in the document: a 2 MB string value and a
    /// 2 MB document of many short strings each parse (and round-trip) in
    /// well under a second.  The parse runs on its own thread so that a
    /// quadratic parser fails the bound instead of hanging the suite.
    #[test]
    fn large_documents_parse_in_linear_time() {
        let long = format!(r#"{{"text":"{}"}}"#, "é = a[i] + 1\\n".repeat(150_000));
        let many = format!("[{}]", vec![r#""loop/12""#; 200_000].join(","));
        for doc in [long, many] {
            assert!(doc.len() >= 2_000_000);
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                let v = Json::parse(&doc).unwrap();
                let secs = t0.elapsed().as_secs_f64();
                let _ = tx.send(secs);
                assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
            });
            let secs = rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .expect("a 2 MB document must parse within a second");
            assert!(secs < 1.0, "parse took {secs:.3}s");
            worker.join().unwrap();
        }
    }
}
