//! A small JSON reader and writer helpers: enough to check that the
//! program's HTTP answers are well-formed and carry the expected values,
//! and to print the result object, without any external crate.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one complete JSON document; `None` on any syntax error or
    /// trailing garbage.
    pub fn parse(src: &str) -> Option<Json> {
        let mut p = Parser {
            s: src.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is a whole one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Option<()> {
        self.s[self.i..].starts_with(lit.as_bytes()).then(|| {
            self.i += lit.len();
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'n' => self.eat("null").map(|_| Json::Null),
            b't' => self.eat("true").map(|_| Json::Bool(true)),
            b'f' => self.eat("false").map(|_| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i)? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Some(Json::Arr(items));
                        }
                        _ => return None,
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Some(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    map.insert(key, self.value()?);
                    self.ws();
                    match self.s.get(self.i)? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Some(Json::Obj(map));
                        }
                        _ => return None,
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse()
            .ok()
            .map(Json::Num)
    }

    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                            let cp = u32::from_str_radix(hex, 16).ok()?;
                            self.i += 4;
                            let ch = char::from_u32(cp).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return None,
                    }
                }
                _ => out.push(c),
            }
        }
    }
}

/// Reads the unsigned integer that follows `"key":` in `src` without
/// parsing the whole document — the hot-path accessor the stream
/// subscriber uses on every line.
pub fn u64_after(src: &str, key: &str) -> Option<u64> {
    let at = src.find(key)? + key.len();
    let digits = src[at..].bytes().take_while(u8::is_ascii_digit).count();
    src[at..at + digits].parse().ok()
}

/// Formats a float for the result line with all its digits (Rust's
/// shortest round-trip form); non-finite values become `0`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j =
            Json::parse(r#" {"a": [1, 2.5, -3e2], "s": "x\"yA", "n": null, "t": true, "o": {}} "#)
                .unwrap();
        let a = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[1].as_u64(), None, "fractions are not integers");
        assert_eq!(j.get("s").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(j.get("n"), Some(&Json::Null));
        assert_eq!(j.get("t"), Some(&Json::Bool(true)));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"open", "nul"] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn finds_integers_after_a_key() {
        let line = r#"{"id":7,"ts_ns":1234567890123,"fields":{}}"#;
        assert_eq!(u64_after(line, "\"ts_ns\":"), Some(1_234_567_890_123));
        assert_eq!(u64_after(line, "\"nope\":"), None);
        assert_eq!(u64_after(r#"{"ts_ns":"x"}"#, "\"ts_ns\":"), None);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }
}
