//! A minimal JSON parser (RFC 8259 subset, no external deps).
//!
//! Exists so telemetry *consumers inside this workspace* — the CI metrics
//! validator and the jobs-1-vs-jobs-N determinism test — can parse what
//! [`crate::jsonl`] emits without a serde dependency. Objects preserve key
//! order (a `Vec` of pairs, not a map), which keeps
//! [`Value::to_json_string`] deterministic and lets tests compare scrubbed
//! records textually.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Copy of this object without one top-level key (used to scrub
    /// run-dependent fields such as `"timing"` before comparing records).
    /// Non-objects return unchanged.
    pub fn without(&self, key: &str) -> Value {
        match self {
            Value::Object(pairs) => {
                Value::Object(pairs.iter().filter(|(k, _)| k != key).cloned().collect())
            }
            v => v.clone(),
        }
    }

    /// Re-serialize (keys in stored order; escaping as [`crate::jsonl`]).
    pub fn to_json_string(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => {
                if n.is_finite() {
                    format!("{n}")
                } else {
                    "null".into()
                }
            }
            Value::String(s) => format!("\"{}\"", crate::jsonl::escape(s)),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(Value::to_json_string).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Object(pairs) => {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", crate::jsonl::escape(k), v.to_json_string()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Maximum container nesting depth [`parse`] accepts.
///
/// The parser is recursive-descent, so input depth is call-stack depth: an
/// untrusted body of a few thousand `[` bytes would otherwise overflow the
/// stack of whatever thread parses it — fatal for a long-running server
/// whose request path this parser sits on. 128 is far beyond any telemetry
/// or request payload in this workspace, and 128 frames are trivially safe
/// on the smallest thread stack Rust spawns.
pub const MAX_DEPTH: usize = 128;

/// Why parsing failed, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, capped at [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Run one container parser one level deeper, rejecting input nested
    /// past [`MAX_DEPTH`] *before* recursing — the depth cap must bound the
    /// call stack, not merely the accepted values.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(s).map_err(|_| self.err("invalid \\u escape"))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(n)
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    let code =
                                        0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let len = match rest[0] {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let s = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = parse(r#"{"b":[1,2,{"c":null}],"a":"x"}"#).unwrap();
        let Value::Object(pairs) = &v else {
            panic!("not an object")
        };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(v.get("a").and_then(Value::as_str), Some("x"));
        let Some(Value::Array(items)) = v.get("b") else {
            panic!("b not an array")
        };
        assert_eq!(items[0], Value::Number(1.0));
        assert_eq!(items[2].get("c"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{e9}"));
        // Surrogate pair for 😀 (U+1F600).
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "{\"a\":1} extra",
            "{'a':1}",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn roundtrip_through_to_json_string() {
        let src = r#"{"record":"app","n":3,"ok":true,"t":null,"xs":[1,2.5],"s":"q\"z"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_json_string(), src);
        // And the re-serialization parses back to the same value.
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn without_scrubs_one_key() {
        let v = parse(r#"{"a":1,"timing":{"wall_ns":9},"b":2}"#).unwrap();
        assert_eq!(v.without("timing").to_json_string(), r#"{"a":1,"b":2}"#);
        // Non-objects pass through.
        assert_eq!(Value::Null.without("x"), Value::Null);
    }

    #[test]
    fn nesting_at_the_depth_limit_parses() {
        // MAX_DEPTH nested arrays: the deepest `[` enters depth MAX_DEPTH.
        let src = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = parse(&src).expect("depth exactly at the limit is legal");
        for _ in 0..MAX_DEPTH {
            let Value::Array(mut items) = v else {
                panic!("expected an array")
            };
            v = items.pop().expect("one element per level");
        }
        assert_eq!(v, Value::Number(1.0));
        // Mixed object/array nesting counts the same way.
        let src = format!(
            "{}null{}",
            r#"{"k":["#.repeat(MAX_DEPTH / 2),
            "]}".repeat(MAX_DEPTH / 2)
        );
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_crash() {
        // One level past the cap: a clean ParseError.
        let src = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&src).expect_err("depth past the limit must fail");
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH, "fails at the first illegal bracket");

        // The attack shape: a request body that is nothing but open
        // brackets. Before the cap this overflowed the parsing thread's
        // stack; now it must return an error like any other bad input.
        for bomb in [
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
            format!("{}{}", "[".repeat(50_000), "{\"x\":[".repeat(50_000)),
        ] {
            assert_eq!(
                parse(&bomb).expect_err("bracket bomb").message,
                "nesting too deep"
            );
        }
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"héllo — ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — ✓"));
    }

    /// Decode a JSON document from a seed stream: every value kind,
    /// escapes (including `\u` surrogate pairs), raw non-ASCII, signed
    /// and exponent numbers, and nesting up to a few levels.
    fn gen_json(words: &mut std::slice::Iter<'_, u32>, depth: u32, out: &mut String) {
        let w = words.next().copied().unwrap_or(0);
        let kind = if depth >= 4 { w % 5 } else { w % 7 };
        match kind {
            0 => out.push_str(["null", "true", "false"][(w >> 8) as usize % 3]),
            1 => out.push_str(&format!("{}", (w >> 3) as i32 - (1 << 27))),
            2 => out.push_str(&format!("-{}.{}e{}", w >> 20, w & 0xff, (w >> 8) % 40)),
            3 | 4 => {
                out.push('"');
                for i in 0..(w >> 8) % 6 {
                    out.push_str(
                        [
                            "a",
                            "\\\"",
                            "\\\\",
                            "\\n",
                            "\\u00e9",
                            "\\ud83d\\ude00",
                            "é",
                            "✓",
                        ][((w >> (i * 3)) & 7) as usize],
                    );
                }
                out.push('"');
            }
            5 => {
                out.push('[');
                for i in 0..(w >> 8) % 4 {
                    if i > 0 {
                        out.push(',');
                    }
                    gen_json(words, depth + 1, out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..(w >> 8) % 4 {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"k{i}\" : "));
                    gen_json(words, depth + 1, out);
                }
                out.push('}');
            }
        }
    }

    fn valid_json(seed: &[u32]) -> String {
        let mut out = String::new();
        gen_json(&mut seed.iter(), 0, &mut out);
        out
    }

    proptest! {
        /// Arbitrary text is answered with `Ok` or `Err`, never a panic.
        #[test]
        fn random_text_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = parse(&String::from_utf8_lossy(&raw));
        }

        /// A generated document parses, re-serializes to an equal value,
        /// and every prefix of it parses or errs without panicking.
        #[test]
        fn valid_documents_parse_and_truncations_never_panic(
            seed in proptest::collection::vec(any::<u32>(), 1..48),
            cut: u64,
        ) {
            let src = valid_json(&seed);
            let v = parse(&src).expect("a generated document parses");
            prop_assert_eq!(parse(&v.to_json_string()).expect("re-serialized"), v);
            let cut = (cut % src.len() as u64) as usize;
            let _ = parse(&String::from_utf8_lossy(&src.as_bytes()[..cut]));
        }

        /// Flipping any single bit of a valid document never panics.
        #[test]
        fn bit_flips_never_panic(
            seed in proptest::collection::vec(any::<u32>(), 1..48),
            bit: u64,
        ) {
            let mut raw = valid_json(&seed).into_bytes();
            let bit = (bit % (raw.len() as u64 * 8)) as usize;
            raw[bit / 8] ^= 1 << (bit % 8);
            let _ = parse(&String::from_utf8_lossy(&raw));
        }
    }
}
