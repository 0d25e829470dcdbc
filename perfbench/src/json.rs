//! The client's own JSON reader and writer.
//!
//! Replies run to megabytes (a `certify` reply lists every race), and
//! `suif_server::json::Json::parse` re-validates the rest of the document
//! for every character of a string, so it is quadratic in the reply's
//! length: decoding a 5 MB reply with it takes minutes.  A benchmark client
//! must not be the slow part, so replies are decoded here in one pass.

use std::collections::BTreeMap;
use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in sorted order, so printing is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn int(n: i64) -> Json {
        Json::Num(n as f64)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().filter(|n| n.fract() == 0.0).map(|n| n as i64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// `self[path[0]][path[1]]…` through nested objects.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => write!(f, "{}", *n as i64),
            Json::Num(n) => write!(f, "{n}"),
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON: {msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.word("null", Json::Null),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    self.eat(b':')?;
                    let value = self.value()?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                self.text[start..self.pos]
                    .parse()
                    .map(Json::Num)
                    .map_err(|_| self.err("bad number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn word(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece; both
            // are ASCII, so the run ends on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let escape = self.peek().ok_or_else(|| self.err("truncated escape"))?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    // The protocol never emits surrogate pairs.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_daemon_prints() {
        let text = r#"{"a":[1,-2.5e3,true,null],"s":"x\n\"y\"é é","t":{"k":"v"}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.at(&["t", "k"]).and_then(Json::as_str), Some("v"));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\n\"y\"é é"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).unwrap()[1],
            Json::Num(-2500.0)
        );
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        // Agrees with the daemon's own reader on the same text.
        let theirs = suif_server::json::Json::parse(text).unwrap();
        assert_eq!(theirs.to_string(), v.to_string());
    }

    #[test]
    fn rejects_malformed_text() {
        for bad in ["", "{", r#"{"a":}"#, r#""abc"#, "[1,]", "1 2", r#""\q""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        let text = format!("\"{}\"", "line\\n".repeat(1_000_000));
        let t0 = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.as_str().unwrap().len(), 5_000_000);
        assert!(t0.elapsed().as_secs() < 5);
    }
}
