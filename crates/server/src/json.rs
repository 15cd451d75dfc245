//! A minimal, dependency-free JSON reader for the wire protocol.
//!
//! The server's *output* is hand-assembled (like `abcd::metrics`), but
//! requests arrive as arbitrary client-formatted JSON and need a real
//! parser. This one supports the full value grammar with strict errors;
//! numbers are kept as `i64` when integral (counts, ids) and `f64`
//! otherwise.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integral number.
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not semantic; a sorted map keeps lookups
    /// and re-emission deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` (rejects negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {}, found `{}`",
            ch as char,
            pos,
            bytes.get(*pos).map(|&b| b as char).unwrap_or('∅')
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Json::Int(n));
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let ch = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: the low half must follow.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_string());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err("bad low surrogate".to_string());
                            }
                            let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(code).ok_or("bad surrogate pair")?
                        } else {
                            char::from_u32(hi).ok_or("bad \\u escape")?
                        };
                        out.push(ch);
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err("raw control character in string".to_string()),
            Some(_) => {
                // Append the whole run of plain bytes at once. It ends at
                // an ASCII `"`, `\`, control byte or the end of input, so
                // it ends on a scalar boundary; validating each run once
                // keeps the reader linear in the frame size.
                let start = *pos;
                let len = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(bytes.len() - start);
                *pos += len;
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let text = std::str::from_utf8(&bytes[start..end]).map_err(|_| "bad \\u escape")?;
    let n = u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))?;
    *pos = end - 1;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j = Json::parse(r#"{"a":[1,-2,3.5,null,true],"b":{"c":"x\ny"},"d":false}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1], Json::Int(-2));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2], Json::Float(3.5));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(j.get("d").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "quote \" slash \\ newline \n tab \t ctrl \u{1}";
        let doc = format!("\"{}\"", abcd::json_escape(original));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap().as_str(),
            Some("é😀")
        );
    }

    #[test]
    fn multibyte_scalars_around_escapes() {
        let escapes = [
            ("\\n", "\n"),
            ("\\\"", "\""),
            ("\\u0041", "A"),
            ("\\ud83d\\ude00", "😀"),
        ];
        for a in ["é", "😀"] {
            assert_eq!(Json::parse(&format!("\"{a}\"")).unwrap().as_str(), Some(a));
            for b in ["é", "😀"] {
                for (wire, decoded) in escapes {
                    let doc = format!("\"{a}{wire}{b}\"");
                    let want = format!("{a}{decoded}{b}");
                    assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(&*want), "{doc}");
                }
            }
        }
    }

    #[test]
    fn long_plain_runs_keep_every_check() {
        let run = "é-x😀".repeat(4096);
        let doc = format!("\"{run}\\ud83d\\ude00\"");
        assert_eq!(
            Json::parse(&doc).unwrap().as_str(),
            Some(&*format!("{run}😀"))
        );
        let err = |doc: String| Json::parse(&doc).unwrap_err();
        assert_eq!(err(format!("\"{run}\\ud83d\"")), "lone high surrogate");
        assert_eq!(
            err(format!("\"{run}\u{1}{run}\"")),
            "raw control character in string"
        );
        assert_eq!(err(format!("\"{run}")), "unterminated string");
        assert_eq!(err(format!("{{\"{run}")), "unterminated string");
    }

    #[test]
    fn corpus_replies_round_trip_byte_identical() {
        for (i, source) in abcd_loadgen::corpus(42, 24).iter().enumerate() {
            let mut module = abcd_frontend::compile(source).unwrap();
            let report = abcd::Optimizer::new().optimize_module(&mut module, None);
            let ir = module.to_string();
            let trace = abcd::module_trace_jsonl(&report, 1, true);
            let reply = crate::proto::ok_response(&ir, &report, false, Some(&trace), None);
            let doc = Json::parse(&reply).unwrap_or_else(|e| panic!("module {i}: {e}"));
            assert_eq!(
                doc.get("ir").and_then(Json::as_str),
                Some(&*ir),
                "module {i}"
            );
            assert_eq!(
                doc.get("trace").and_then(Json::as_str),
                Some(&*trace),
                "module {i}"
            );
        }
    }
}
