//! The repo's one JSON codec: the serve protocol, the `results/BENCH_*`
//! artifacts, the journal and the serve cache all read and write
//! through it.
//!
//! The workspace is offline and std-only, so this is written here
//! rather than taken from crates.io. [`parse`] accepts exactly standard
//! JSON (objects, arrays, strings with escapes including `\uXXXX`,
//! numbers, booleans, null), bounds nesting depth, and reports errors
//! with byte offsets so a client can debug its own request line. The
//! writer has two layouts:
//!
//! * [`Json::line`] — one line, `{"k": v, "k2": [1, 2]}`: protocol
//!   requests and responses, journal lines, serve-cache entries;
//! * [`Json::pretty`] — the `results/BENCH_*.json` layout: the top-level
//!   members one per line, the elements of top-level arrays one per
//!   line, everything nested deeper inline (`[]` inline too).
//!
//! The writer escapes every control byte, so whatever it writes,
//! [`parse`] reads back to the same value. Build values with [`obj!`]
//! and `Json::from`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64 carries every integer the repo writes exactly, up
    /// to 2^53 — far above any access budget, counter or port).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (`get` returns the first member of a
    /// duplicated key).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if this is a
    /// number representable as one (negative and fractional values are
    /// rejected — every protocol integer is a count).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number (fractions included —
    /// latencies and rates, where [`as_u64`] covers the counts).
    ///
    /// [`as_u64`]: Json::as_u64
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The one-line form: `{"k": v, "k2": [1, 2]}`.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// The `results/BENCH_*.json` layout, newline-terminated: a
    /// top-level object's members one per line, the elements of its
    /// array members one per line, everything deeper inline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str("  ");
                    write_str(key, &mut out);
                    out.push_str(": ");
                    match value {
                        Json::Arr(items) if !items.is_empty() => {
                            out.push_str("[\n");
                            for (j, item) in items.iter().enumerate() {
                                out.push_str("    ");
                                item.write(&mut out);
                                out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                            }
                            out.push_str("  ]");
                        }
                        _ => value.write(&mut out),
                    }
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push('}');
            }
            _ => self.write(&mut out),
        }
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Display is the shortest text that parses back to `n`.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal. Every byte below 0x20 is
/// escaped (`\n`, `\r`, `\t` by name, the rest as `\u00XX`), as are `"`
/// and `\`; everything else, non-ASCII included, is copied through.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// `x` rounded to `decimals` places — for wall-clock readings, which
/// carry no more resolution than that.
pub fn rounded(x: f64, decimals: usize) -> Json {
    Json::Num(format!("{x:.decimals$}").parse().unwrap_or(x))
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Self {
        Json::Str(s.clone())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// Builds a [`Json::Obj`] from `key => value` members, in order; values
/// convert with `Json::from`. A `key =>? value` member takes an `Option`
/// and is left out when it is `None`.
macro_rules! obj {
    (@push $m:ident; $(,)?) => {};
    (@push $m:ident; $key:expr =>? $value:expr $(, $($rest:tt)*)?) => {
        if let Some(value) = $value {
            $m.push((String::from($key), $crate::serve::json::Json::from(value)));
        }
        $crate::serve::json::obj!(@push $m; $($($rest)*)?);
    };
    (@push $m:ident; $key:expr => $value:expr $(, $($rest:tt)*)?) => {
        $m.push((String::from($key), $crate::serve::json::Json::from($value)));
        $crate::serve::json::obj!(@push $m; $($($rest)*)?);
    };
    ($($members:tt)*) => {{
        #[allow(unused_mut)]
        let mut members = Vec::new();
        $crate::serve::json::obj!(@push members; $($members)*);
        $crate::serve::json::Json::Obj(members)
    }};
}
pub(crate) use obj;

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one complete JSON value (trailing whitespace allowed,
/// trailing garbage is an error).
///
/// # Errors
/// A message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(format!("unexpected byte 0x{other:02x} at offset {}", self.pos))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at offset {}", self.pos))?;
        let text = std::str::from_utf8(slice)
            .map_err(|_| format!("non-ASCII \\u escape at offset {}", self.pos))?;
        let code = u16::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at offset {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
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
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes.get(self.pos..self.pos + 2)
                                    != Some(b"\\u")
                                {
                                    return Err(format!(
                                        "lone high surrogate at offset {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "bad low surrogate at offset {}",
                                        self.pos
                                    ));
                                }
                                let code = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(code).ok_or_else(|| {
                                    format!("bad surrogate pair at offset {}", self.pos)
                                })?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(format!(
                                    "lone low surrogate at offset {}",
                                    self.pos
                                ));
                            } else {
                                char::from_u32(u32::from(hi)).ok_or_else(|| {
                                    format!("bad \\u escape at offset {}", self.pos)
                                })?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at offset {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "unescaped control byte 0x{b:02x} at offset {}",
                        self.pos
                    ))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input arrived as &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().expect("peek saw a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at offset {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_prng::Rng;
    use colt_quickprop::prelude::*;

    #[test]
    fn parses_protocol_shaped_requests() {
        let v = parse(
            "{\"op\": \"sweep\", \"experiment\": \"fig18\", \"accesses\": 30000, \
             \"bench\": \"Gobmk,Bzip2\", \"deep\": {\"list\": [1, 2.5, -3, true, null]}}",
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("sweep"));
        assert_eq!(v.get("accesses").and_then(Json::as_u64), Some(30_000));
        assert_eq!(
            v.get("deep").and_then(|d| d.get("list")),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0),
                Json::Bool(true),
                Json::Null,
            ]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unescapes_strings_including_surrogate_pairs() {
        let v = parse("\"a\\n\\t\\\"b\\\\c\\u0041\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"b\\cA\u{1F600}"));
        assert!(parse("\"\\uD800\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\uDC00\"").is_err(), "lone low surrogate");
        assert!(parse("\"\\q\"").is_err(), "unknown escape");
    }

    /// Sweep CSV bytes travel as a JSON string; clients (and serve-bench)
    /// must get the original back, and the escapes are the short ones.
    #[test]
    fn round_trips_artifact_escaping() {
        let original = "name,value\n\"quoted, cell\",1\nunicode: \u{3bb}\ttab\n";
        let line = obj! { "bytes" => original }.line();
        assert_eq!(
            line,
            "{\"bytes\": \"name,value\\n\\\"quoted, cell\\\",1\\nunicode: \u{3bb}\\ttab\\n\"}"
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("bytes").and_then(Json::as_str), Some(original));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "{\"a\"}", "{\"a\":}", "[1,]", "{\"a\":1,}", "tru", "1 2",
            "{\"a\": 1} x", "\"unterminated", "{\"a\": 0x10}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(parse("01").is_err() || parse("01").is_ok(), "leading zeros tolerated");
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn both_layouts_keep_the_key_value_spacing() {
        let doc = obj! {
            "jobs" => 2u64,
            "rate" => 0.05,
            "missing" =>? None::<u64>,
            "present" =>? Some("yes"),
            "rows" => vec![obj! { "a" => 1u64, "b" => vec![Json::Null] }, obj! {}],
            "failures" => Vec::<Json>::new(),
            "verified" => None::<bool>,
        };
        assert_eq!(
            doc.line(),
            "{\"jobs\": 2, \"rate\": 0.05, \"present\": \"yes\", \"rows\": [{\"a\": 1, \
             \"b\": [null]}, {}], \"failures\": [], \"verified\": null}"
        );
        assert_eq!(
            doc.pretty(),
            "{\n  \"jobs\": 2,\n  \"rate\": 0.05,\n  \"present\": \"yes\",\n  \"rows\": [\n    \
             {\"a\": 1, \"b\": [null]},\n    {}\n  ],\n  \"failures\": [],\n  \
             \"verified\": null\n}\n"
        );
        assert_eq!(rounded(0.123_456_789, 6), Json::Num(0.123_457));
        assert_eq!(Json::Num(f64::NAN).line(), "null");
    }

    /// Every string-building block the property draws from: all 32
    /// control bytes, the two characters JSON must escape, and one-,
    /// two-, three- and four-byte UTF-8 (the last outside the BMP).
    fn alphabet() -> Vec<char> {
        let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
        chars.extend(['"', '\\', '/', 'a', 'Z', '0', ' ', '\u{7f}', '\u{3bb}', '\u{20ac}']);
        chars.extend(['\u{1F600}', '\u{10FFFF}', '\u{1D11E}']);
        chars
    }

    /// Random JSON values no deeper than `depth` levels below this one.
    #[derive(Clone)]
    struct Values {
        depth: usize,
    }

    impl Values {
        fn string(rng: &mut TestRng) -> String {
            let alphabet = alphabet();
            (0..rng.gen_range(0..12usize)).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
        }

        fn number(rng: &mut TestRng) -> f64 {
            match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..=1u64 << 53) as f64,
                1 => -(rng.gen_range(0..=1u64 << 53) as f64),
                2 => rng.gen_range(0.0..1.0),
                _ => Some(f64::from_bits(rng.next_u64())).filter(|x| x.is_finite()).unwrap_or(0.5),
            }
        }
    }

    impl Strategy for Values {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            let arms: u32 = if self.depth == 0 { 5 } else { 7 };
            let inner = Values { depth: self.depth.saturating_sub(1) };
            match rng.gen_range(0..arms) {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64() & 1 == 1),
                2 => Json::Num(Self::number(rng)),
                3 | 4 => Json::Str(Self::string(rng)),
                5 => Json::Arr((0..rng.gen_range(0..4usize)).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..rng.gen_range(0..4usize))
                        .map(|_| (Self::string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    /// A chain of arrays and objects nested exactly to the parser's
    /// depth cap around a random leaf.
    #[derive(Clone)]
    struct DeepChains;

    impl Strategy for DeepChains {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            (0..MAX_DEPTH).fold(Values { depth: 0 }.generate(rng), |inner, _| {
                if rng.next_u64() & 1 == 0 {
                    Json::Arr(vec![inner])
                } else {
                    Json::Obj(vec![(Values::string(rng), inner)])
                }
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_reads_back_what_either_layout_writes(v in Values { depth: 4 }) {
            prop_assert_eq!(parse(&v.line()), Ok(v.clone()));
            prop_assert_eq!(parse(&v.pretty()), Ok(v));
        }

        #[test]
        fn values_nested_to_the_depth_cap_round_trip(v in DeepChains) {
            prop_assert_eq!(parse(&v.line()), Ok(v.clone()));
            prop_assert_eq!(parse(&v.pretty()), Ok(v));
        }
    }
}
