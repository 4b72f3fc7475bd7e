//! Hand-rolled JSON codec for the scenario layer: [`Scenario`],
//! [`CellGraph`], [`CellConfig`] and the solve-option structs, plus the
//! small JSON value layer ([`JsonValue`]) the campaign engine builds
//! its file formats on.
//!
//! serde is not vendored in this workspace, so the serialized API
//! surface the ROADMAP asks for ("accepts scenario descriptions") is
//! implemented directly. The contract that matters is **bit-exactness
//! on lowering**: `scenario_from_json(scenario_to_json(s))` must
//! produce a `Scenario` whose `ClusterModel` and `SimConfig` lowerings
//! are bitwise identical to `s`'s. Two properties carry this:
//!
//! * `f64` values are serialized with Rust's `{}` formatting, which
//!   emits the shortest decimal string that parses back to the same
//!   bits, and parsed with `str::parse::<f64>` (correctly rounded) —
//!   so every finite `f64` survives the round trip bit for bit.
//! * [`CellGraph`]'s derived fields (weight totals, uniform flags,
//!   in-edge lists) are deterministic functions of the adjacency
//!   lists, so rebuilding the graph through
//!   [`CellGraph::from_weighted_adjacency`] reproduces it exactly.
//!
//! Deserialization re-runs the full constructor validation and adds
//! typed [`CodecError`]s for everything the constructors do not check
//! (notably the [`SessionParams`] traffic fields, whose `new`
//! constructor panics instead of returning errors): a malformed or
//! truncated document is always a structured error, never a panic.

use crate::cluster::{ClusterSolveOptions, SweepOrdering};
use crate::coding::CodingScheme;
use crate::config::CellConfig;
use crate::error::ModelError;
use crate::graph::CellGraph;
use crate::scenario::Scenario;
use gprs_ctmc::SolveOptions;
use gprs_traffic::SessionParams;
use std::fmt;
use std::time::Duration;

/// Format tag embedded in every serialized scenario document; bumped
/// on breaking format changes so old journals fail loudly instead of
/// misparsing.
pub const SCENARIO_FORMAT: &str = "gprs-scenario/v1";

/// Maximum nesting depth [`parse_json`] accepts — hostile or corrupted
/// documents with deeper nesting are rejected instead of overflowing
/// the parser's stack.
pub const MAX_JSON_DEPTH: usize = 64;

/// A typed codec failure: where the document broke and why.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The text is not well-formed JSON (includes truncation).
    Parse {
        /// Byte offset of the defect.
        offset: usize,
        /// What the parser expected or found.
        reason: String,
    },
    /// The JSON is well-formed but does not match the expected schema
    /// (missing field, wrong type, out-of-range integer).
    Schema {
        /// Dotted path of the offending field (e.g. `cells[3].traffic`).
        path: String,
        /// What the decoder expected.
        reason: String,
    },
    /// The document decoded structurally but fails domain validation
    /// (a constructor or `validate()` rejected it).
    Invalid {
        /// The underlying validation failure.
        reason: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Parse { offset, reason } => {
                write!(f, "malformed JSON at byte {offset}: {reason}")
            }
            CodecError::Schema { path, reason } => {
                write!(f, "schema mismatch at `{path}`: {reason}")
            }
            CodecError::Invalid { reason } => write!(f, "invalid document: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<ModelError> for CodecError {
    fn from(e: ModelError) -> Self {
        CodecError::Invalid {
            reason: e.to_string(),
        }
    }
}

/// A parsed JSON value. Objects keep their fields as an ordered list
/// of `(key, value)` pairs so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (integers up to 2⁵³ are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in document/insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a field of an object; `None` for missing fields or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is
    /// mathematically an integer representable exactly in `f64`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON text. Finite numbers use
    /// Rust's shortest-round-trip `{}` formatting (bit-exact through
    /// [`parse_json`]); non-finite numbers serialize as `null`, which
    /// the typed decoders reject — validated documents never contain
    /// them outside the explicitly-handled `divergence_factor`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest-round-trip: parse gives
                    // back the identical bits.
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_json_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Parses one JSON document (rejecting trailing garbage after the top
/// value).
///
/// # Errors
///
/// [`CodecError::Parse`] with the byte offset of the first defect —
/// truncated documents report an "unexpected end of input" at the
/// truncation point.
pub fn parse_json(text: &str) -> Result<JsonValue, CodecError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> CodecError {
        CodecError::Parse {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), CodecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else if self.pos >= self.bytes.len() {
            Err(self.err(format!("unexpected end of input, expected `{}`", b as char)))
        } else {
            Err(self.err(format!(
                "expected `{}`, found `{}`",
                b as char, self.bytes[self.pos] as char
            )))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, CodecError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input, expected a value")),
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.err(format!("unexpected character `{}`", other as char))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, CodecError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits in number"));
        }
        if self.bytes[digits_start] == b'0' && self.pos > digits_start + 1 {
            return Err(self.err("leading zeros are not allowed in numbers"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        // Number tokens are ASCII by construction, so this never fails.
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("number token is not ASCII"))?;
        token
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| self.err(format!("unparseable number `{token}`: {e}")))
    }

    fn parse_string(&mut self) -> Result<String, CodecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unexpected end of input inside string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unexpected end of input after backslash"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: require the paired low
                                // surrogate escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("unpaired surrogate escape"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate escape"));
                                }
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                b if b < 0x20 => return Err(self.err("unescaped control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if width == 0 || end > self.bytes.len() {
                        return Err(self.err("invalid UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, CodecError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("unexpected end of input in unicode escape"));
        }
        let token = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(token, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, CodecError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                Some(other) => {
                    return Err(self.err(format!(
                        "expected `,` or `]` in array, found `{}`",
                        other as char
                    )))
                }
                None => return Err(self.err("unexpected end of input inside array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, CodecError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                Some(other) => {
                    return Err(self.err(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        other as char
                    )))
                }
                None => return Err(self.err("unexpected end of input inside object")),
            }
        }
    }
}

/// Byte length of the UTF-8 sequence starting with `first`, `0` for
/// invalid lead bytes.
fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF4 => 4,
        _ => 0,
    }
}

// ---------------------------------------------------------------------
// Typed field accessors shared by the struct codecs.
// ---------------------------------------------------------------------

fn schema_err(path: &str, reason: impl Into<String>) -> CodecError {
    CodecError::Schema {
        path: path.to_string(),
        reason: reason.into(),
    }
}

fn field<'a>(obj: &'a JsonValue, path: &str, key: &str) -> Result<&'a JsonValue, CodecError> {
    obj.get(key)
        .ok_or_else(|| schema_err(&join(path, key), "missing field"))
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn f64_field(obj: &JsonValue, path: &str, key: &str) -> Result<f64, CodecError> {
    field(obj, path, key)?
        .as_f64()
        .ok_or_else(|| schema_err(&join(path, key), "expected a number"))
}

/// A number at `path` that must pass `valid` (`rule` names the range),
/// so a solver parameter the option builders forbid never reaches a
/// solve.
fn checked_f64(
    value: &JsonValue,
    path: &str,
    rule: &str,
    valid: impl Fn(f64) -> bool,
) -> Result<f64, CodecError> {
    match value.as_f64() {
        Some(x) if valid(x) => Ok(x),
        Some(x) => Err(schema_err(path, format!("{x} is out of range: {rule}"))),
        None => Err(schema_err(path, "expected a number")),
    }
}

fn usize_field(obj: &JsonValue, path: &str, key: &str) -> Result<usize, CodecError> {
    field(obj, path, key)?
        .as_usize()
        .ok_or_else(|| schema_err(&join(path, key), "expected a non-negative integer"))
}

fn str_field<'a>(obj: &'a JsonValue, path: &str, key: &str) -> Result<&'a str, CodecError> {
    field(obj, path, key)?
        .as_str()
        .ok_or_else(|| schema_err(&join(path, key), "expected a string"))
}

fn bool_field(obj: &JsonValue, path: &str, key: &str) -> Result<bool, CodecError> {
    field(obj, path, key)?
        .as_bool()
        .ok_or_else(|| schema_err(&join(path, key), "expected a boolean"))
}

// ---------------------------------------------------------------------
// CellGraph codec.
// ---------------------------------------------------------------------

/// Serializes a topology as its weighted adjacency lists:
/// `{"adjacency": [[[target, weight], ...], ...]}`. The derived fields
/// (weight totals, uniform flags, in-edges) are *not* serialized —
/// [`graph_from_json_value`] recomputes them deterministically, which
/// is what makes the round trip exact.
pub fn graph_to_json_value(graph: &CellGraph) -> JsonValue {
    let lists: Vec<JsonValue> = graph
        .adjacency()
        .iter()
        .map(|nbrs| {
            JsonValue::Array(
                nbrs.iter()
                    .map(|&(t, w)| {
                        JsonValue::Array(vec![JsonValue::Num(t as f64), JsonValue::Num(w)])
                    })
                    .collect(),
            )
        })
        .collect();
    JsonValue::Object(vec![("adjacency".into(), JsonValue::Array(lists))])
}

/// Rebuilds a [`CellGraph`] from [`graph_to_json_value`] output,
/// re-running the full topology validation.
///
/// # Errors
///
/// [`CodecError::Schema`] on structural mismatch,
/// [`CodecError::Invalid`] when the adjacency fails
/// [`CellGraph::from_weighted_adjacency`] validation.
pub fn graph_from_json_value(value: &JsonValue, path: &str) -> Result<CellGraph, CodecError> {
    let lists_value = field(value, path, "adjacency")?
        .as_array()
        .ok_or_else(|| schema_err(&join(path, "adjacency"), "expected an array"))?;
    let mut lists = Vec::with_capacity(lists_value.len());
    for (i, cell) in lists_value.iter().enumerate() {
        let cell_path = format!("{}[{i}]", join(path, "adjacency"));
        let edges = cell
            .as_array()
            .ok_or_else(|| schema_err(&cell_path, "expected an array of [target, weight]"))?;
        let mut nbrs = Vec::with_capacity(edges.len());
        for (j, edge) in edges.iter().enumerate() {
            let edge_path = format!("{cell_path}[{j}]");
            let pair = edge
                .as_array()
                .ok_or_else(|| schema_err(&edge_path, "expected [target, weight]"))?;
            if pair.len() != 2 {
                return Err(schema_err(&edge_path, "expected exactly [target, weight]"));
            }
            let target = pair[0]
                .as_usize()
                .ok_or_else(|| schema_err(&edge_path, "target must be a non-negative integer"))?;
            let weight = pair[1]
                .as_f64()
                .ok_or_else(|| schema_err(&edge_path, "weight must be a number"))?;
            nbrs.push((target, weight));
        }
        lists.push(nbrs);
    }
    Ok(CellGraph::from_weighted_adjacency(lists)?)
}

// ---------------------------------------------------------------------
// CellConfig codec.
// ---------------------------------------------------------------------

fn coding_scheme_label(cs: CodingScheme) -> &'static str {
    match cs {
        CodingScheme::Cs1 => "CS-1",
        CodingScheme::Cs2 => "CS-2",
        CodingScheme::Cs3 => "CS-3",
        CodingScheme::Cs4 => "CS-4",
    }
}

fn coding_scheme_from_label(label: &str, path: &str) -> Result<CodingScheme, CodecError> {
    match label {
        "CS-1" => Ok(CodingScheme::Cs1),
        "CS-2" => Ok(CodingScheme::Cs2),
        "CS-3" => Ok(CodingScheme::Cs3),
        "CS-4" => Ok(CodingScheme::Cs4),
        other => Err(schema_err(
            path,
            format!("unknown coding scheme `{other}` (expected CS-1..CS-4)"),
        )),
    }
}

/// Serializes one cell configuration with every field explicit.
pub fn cell_to_json_value(cell: &CellConfig) -> JsonValue {
    JsonValue::Object(vec![
        (
            "total_channels".into(),
            JsonValue::Num(cell.total_channels as f64),
        ),
        (
            "reserved_pdchs".into(),
            JsonValue::Num(cell.reserved_pdchs as f64),
        ),
        (
            "buffer_capacity".into(),
            JsonValue::Num(cell.buffer_capacity as f64),
        ),
        ("tcp_threshold".into(), JsonValue::Num(cell.tcp_threshold)),
        (
            "coding_scheme".into(),
            JsonValue::Str(coding_scheme_label(cell.coding_scheme).into()),
        ),
        (
            "gsm_call_duration".into(),
            JsonValue::Num(cell.gsm_call_duration),
        ),
        ("gsm_dwell_time".into(), JsonValue::Num(cell.gsm_dwell_time)),
        (
            "gprs_dwell_time".into(),
            JsonValue::Num(cell.gprs_dwell_time),
        ),
        ("gprs_fraction".into(), JsonValue::Num(cell.gprs_fraction)),
        (
            "call_arrival_rate".into(),
            JsonValue::Num(cell.call_arrival_rate),
        ),
        (
            "max_gprs_sessions".into(),
            JsonValue::Num(cell.max_gprs_sessions as f64),
        ),
        (
            "block_error_rate".into(),
            JsonValue::Num(cell.block_error_rate),
        ),
        (
            "traffic".into(),
            JsonValue::Object(vec![
                (
                    "packet_calls_per_session".into(),
                    JsonValue::Num(cell.traffic.packet_calls_per_session),
                ),
                (
                    "reading_time".into(),
                    JsonValue::Num(cell.traffic.reading_time),
                ),
                (
                    "packets_per_call".into(),
                    JsonValue::Num(cell.traffic.packets_per_call),
                ),
                (
                    "packet_interarrival".into(),
                    JsonValue::Num(cell.traffic.packet_interarrival),
                ),
            ]),
        ),
    ])
}

/// Rebuilds one [`CellConfig`] from [`cell_to_json_value`] output.
///
/// The traffic block is validated *here* with typed errors —
/// [`CellConfig::validate`] does not cover [`SessionParams`] and the
/// `SessionParams::new` constructor panics on bad input, which a codec
/// must never do.
///
/// # Errors
///
/// [`CodecError::Schema`] on structural mismatch or invalid traffic
/// fields; the caller is expected to run [`CellConfig::validate`] (the
/// scenario codec does, via [`Scenario::from_graph`]).
pub fn cell_from_json_value(value: &JsonValue, path: &str) -> Result<CellConfig, CodecError> {
    let traffic_value = field(value, path, "traffic")?;
    let traffic_path = join(path, "traffic");
    let traffic = SessionParams {
        packet_calls_per_session: f64_field(
            traffic_value,
            &traffic_path,
            "packet_calls_per_session",
        )?,
        reading_time: f64_field(traffic_value, &traffic_path, "reading_time")?,
        packets_per_call: f64_field(traffic_value, &traffic_path, "packets_per_call")?,
        packet_interarrival: f64_field(traffic_value, &traffic_path, "packet_interarrival")?,
    };
    for (name, v, min_one) in [
        (
            "packet_calls_per_session",
            traffic.packet_calls_per_session,
            true,
        ),
        ("packets_per_call", traffic.packets_per_call, true),
        ("reading_time", traffic.reading_time, false),
        ("packet_interarrival", traffic.packet_interarrival, false),
    ] {
        let ok = v.is_finite() && if min_one { v >= 1.0 } else { v > 0.0 };
        if !ok {
            return Err(schema_err(
                &join(&traffic_path, name),
                format!(
                    "must be finite and {} (got {v})",
                    if min_one { ">= 1" } else { "> 0" }
                ),
            ));
        }
    }
    Ok(CellConfig {
        total_channels: usize_field(value, path, "total_channels")?,
        reserved_pdchs: usize_field(value, path, "reserved_pdchs")?,
        buffer_capacity: usize_field(value, path, "buffer_capacity")?,
        tcp_threshold: f64_field(value, path, "tcp_threshold")?,
        coding_scheme: coding_scheme_from_label(
            str_field(value, path, "coding_scheme")?,
            &join(path, "coding_scheme"),
        )?,
        gsm_call_duration: f64_field(value, path, "gsm_call_duration")?,
        gsm_dwell_time: f64_field(value, path, "gsm_dwell_time")?,
        gprs_dwell_time: f64_field(value, path, "gprs_dwell_time")?,
        gprs_fraction: f64_field(value, path, "gprs_fraction")?,
        call_arrival_rate: f64_field(value, path, "call_arrival_rate")?,
        max_gprs_sessions: usize_field(value, path, "max_gprs_sessions")?,
        traffic,
        block_error_rate: f64_field(value, path, "block_error_rate")?,
    })
}

// ---------------------------------------------------------------------
// Scenario codec.
// ---------------------------------------------------------------------

/// Serializes a scenario to a [`JsonValue`] document (format tag,
/// name, load scale, TCP switch, topology, base cells).
pub fn scenario_to_json_value(scenario: &Scenario) -> JsonValue {
    JsonValue::Object(vec![
        ("format".into(), JsonValue::Str(SCENARIO_FORMAT.into())),
        ("name".into(), JsonValue::Str(scenario.name().into())),
        ("load_scale".into(), JsonValue::Num(scenario.load_scale())),
        (
            "tcp_enabled".into(),
            JsonValue::Bool(scenario.tcp_enabled()),
        ),
        ("graph".into(), graph_to_json_value(scenario.graph())),
        (
            "cells".into(),
            JsonValue::Array(
                scenario
                    .base_cells()
                    .iter()
                    .map(cell_to_json_value)
                    .collect(),
            ),
        ),
    ])
}

/// Serializes a scenario to compact JSON text.
pub fn scenario_to_json(scenario: &Scenario) -> String {
    scenario_to_json_value(scenario).to_json_string()
}

/// Rebuilds a [`Scenario`] from a [`scenario_to_json_value`] document,
/// re-running every constructor validation on the way.
///
/// # Errors
///
/// [`CodecError::Schema`] on structural mismatch (including a wrong
/// or missing `format` tag), [`CodecError::Invalid`] when the decoded
/// document fails scenario/graph/cell validation.
pub fn scenario_from_json_value(value: &JsonValue) -> Result<Scenario, CodecError> {
    let format = str_field(value, "", "format")?;
    if format != SCENARIO_FORMAT {
        return Err(schema_err(
            "format",
            format!("expected `{SCENARIO_FORMAT}`, got `{format}`"),
        ));
    }
    let name = str_field(value, "", "name")?;
    let load_scale = f64_field(value, "", "load_scale")?;
    let tcp_enabled = bool_field(value, "", "tcp_enabled")?;
    let graph = graph_from_json_value(field(value, "", "graph")?, "graph")?;
    let cells_value = field(value, "", "cells")?
        .as_array()
        .ok_or_else(|| schema_err("cells", "expected an array"))?;
    let mut cells = Vec::with_capacity(cells_value.len());
    for (i, cell) in cells_value.iter().enumerate() {
        cells.push(cell_from_json_value(cell, &format!("cells[{i}]"))?);
    }
    // from_graph starts at load_scale 1.0; `1.0 * s == s` exactly, so
    // with_load_scale reproduces the serialized scale bit for bit.
    let mut scenario = Scenario::from_graph(name, graph, cells)?.with_load_scale(load_scale)?;
    if !tcp_enabled {
        scenario = scenario.without_tcp();
    }
    Ok(scenario)
}

/// Parses and rebuilds a [`Scenario`] from JSON text.
///
/// # Errors
///
/// [`CodecError::Parse`] for malformed/truncated text, then as
/// [`scenario_from_json_value`].
pub fn scenario_from_json(text: &str) -> Result<Scenario, CodecError> {
    scenario_from_json_value(&parse_json(text)?)
}

// ---------------------------------------------------------------------
// Solve-option codecs.
// ---------------------------------------------------------------------

/// Serializes inner-CTMC solve options. `max_wall_time` becomes
/// `{"secs": u64, "nanos": u32}` (or `null`), `divergence_factor`
/// serializes the documented `f64::INFINITY` sentinel as the string
/// `"inf"`.
pub fn solve_options_to_json_value(opts: &SolveOptions) -> JsonValue {
    let wall = match opts.max_wall_time {
        None => JsonValue::Null,
        Some(d) => JsonValue::Object(vec![
            ("secs".into(), JsonValue::Num(d.as_secs() as f64)),
            ("nanos".into(), JsonValue::Num(d.subsec_nanos() as f64)),
        ]),
    };
    let divergence = if opts.divergence_factor.is_finite() {
        JsonValue::Num(opts.divergence_factor)
    } else {
        JsonValue::Str("inf".into())
    };
    JsonValue::Object(vec![
        ("tolerance".into(), JsonValue::Num(opts.tolerance)),
        ("max_sweeps".into(), JsonValue::Num(opts.max_sweeps as f64)),
        ("sor_omega".into(), JsonValue::Num(opts.sor_omega)),
        (
            "check_every".into(),
            JsonValue::Num(opts.check_every as f64),
        ),
        ("max_wall_time".into(), wall),
        ("divergence_factor".into(), divergence),
    ])
}

/// Rebuilds [`SolveOptions`] from [`solve_options_to_json_value`]
/// output. Missing fields fall back to [`SolveOptions::default`], so
/// hand-written campaign files only spell out what they change.
///
/// # Errors
///
/// [`CodecError::Schema`] on wrong field types, and on values the
/// solvers cannot run with: a `tolerance` that is not `> 0` (no
/// residual could ever meet it), a `sor_omega` outside `(0, 2)` (at 0
/// the iterate never moves) or a numeric `divergence_factor` not
/// `> 1`.
pub fn solve_options_from_json_value(
    value: &JsonValue,
    path: &str,
) -> Result<SolveOptions, CodecError> {
    let mut opts = SolveOptions::default();
    if let Some(v) = value.get("tolerance") {
        opts.tolerance = checked_f64(v, &join(path, "tolerance"), "must be > 0", |x| x > 0.0)?;
    }
    if let Some(v) = value.get("max_sweeps") {
        opts.max_sweeps = v
            .as_usize()
            .ok_or_else(|| schema_err(&join(path, "max_sweeps"), "expected an integer"))?;
    }
    if let Some(v) = value.get("sor_omega") {
        opts.sor_omega = checked_f64(v, &join(path, "sor_omega"), "must lie in (0, 2)", |x| {
            x > 0.0 && x < 2.0
        })?;
    }
    if let Some(v) = value.get("check_every") {
        opts.check_every = v
            .as_usize()
            .ok_or_else(|| schema_err(&join(path, "check_every"), "expected an integer"))?;
    }
    if let Some(v) = value.get("max_wall_time") {
        opts.max_wall_time = match v {
            JsonValue::Null => None,
            obj @ JsonValue::Object(_) => {
                let wall_path = join(path, "max_wall_time");
                let secs = usize_field(obj, &wall_path, "secs")? as u64;
                let nanos = usize_field(obj, &wall_path, "nanos")?;
                let nanos = u32::try_from(nanos)
                    .map_err(|_| schema_err(&join(&wall_path, "nanos"), "must fit in u32"))?;
                Some(Duration::new(secs, nanos))
            }
            _ => {
                return Err(schema_err(
                    &join(path, "max_wall_time"),
                    "expected null or {secs, nanos}",
                ))
            }
        };
    }
    if let Some(v) = value.get("divergence_factor") {
        opts.divergence_factor = match v {
            JsonValue::Str(s) if s == "inf" => f64::INFINITY,
            JsonValue::Num(_) => {
                checked_f64(v, &join(path, "divergence_factor"), "must be > 1", |x| {
                    x > 1.0
                })?
            }
            _ => {
                return Err(schema_err(
                    &join(path, "divergence_factor"),
                    "expected a number or \"inf\"",
                ))
            }
        };
    }
    Ok(opts)
}

fn ordering_label(ordering: SweepOrdering) -> &'static str {
    match ordering {
        SweepOrdering::Jacobi => "jacobi",
        SweepOrdering::GaussSeidel => "gauss-seidel",
    }
}

/// Serializes cluster solve options (inner solve options nested under
/// `"solve"`).
pub fn cluster_options_to_json_value(opts: &ClusterSolveOptions) -> JsonValue {
    JsonValue::Object(vec![
        ("tolerance".into(), JsonValue::Num(opts.tolerance)),
        (
            "max_iterations".into(),
            JsonValue::Num(opts.max_iterations as f64),
        ),
        ("solve".into(), solve_options_to_json_value(&opts.solve)),
        ("threads".into(), JsonValue::Num(opts.threads as f64)),
        (
            "ordering".into(),
            JsonValue::Str(ordering_label(opts.ordering).into()),
        ),
        ("shards".into(), JsonValue::Num(opts.shards as f64)),
    ])
}

/// Rebuilds [`ClusterSolveOptions`] from
/// [`cluster_options_to_json_value`] output; missing fields fall back
/// to [`ClusterSolveOptions::default`], and unknown keys (the retired
/// `adaptive_relaxation` and `surrogate` among them) are ignored.
///
/// # Errors
///
/// [`CodecError::Schema`] on wrong field types, an unknown ordering
/// label, a `tolerance` that is not `> 0`, or inner solve options
/// that [`solve_options_from_json_value`] rejects.
pub fn cluster_options_from_json_value(
    value: &JsonValue,
    path: &str,
) -> Result<ClusterSolveOptions, CodecError> {
    let mut opts = ClusterSolveOptions::default();
    if let Some(v) = value.get("tolerance") {
        opts.tolerance = checked_f64(v, &join(path, "tolerance"), "must be > 0", |x| x > 0.0)?;
    }
    if let Some(v) = value.get("max_iterations") {
        opts.max_iterations = v
            .as_usize()
            .ok_or_else(|| schema_err(&join(path, "max_iterations"), "expected an integer"))?;
    }
    if let Some(v) = value.get("solve") {
        opts.solve = solve_options_from_json_value(v, &join(path, "solve"))?;
    }
    if let Some(v) = value.get("threads") {
        opts.threads = v
            .as_usize()
            .ok_or_else(|| schema_err(&join(path, "threads"), "expected an integer"))?;
    }
    if let Some(v) = value.get("ordering") {
        let label = v
            .as_str()
            .ok_or_else(|| schema_err(&join(path, "ordering"), "expected a string"))?;
        opts.ordering = match label {
            "jacobi" => SweepOrdering::Jacobi,
            "gauss-seidel" => SweepOrdering::GaussSeidel,
            other => {
                return Err(schema_err(
                    &join(path, "ordering"),
                    format!("unknown ordering `{other}` (expected jacobi | gauss-seidel)"),
                ))
            }
        };
    }
    if let Some(v) = value.get("shards") {
        opts.shards = v
            .as_usize()
            .ok_or_else(|| schema_err(&join(path, "shards"), "expected an integer"))?;
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_traffic::TrafficModel;

    fn tiny(rate: f64) -> CellConfig {
        CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(5)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(2)
            .call_arrival_rate(rate)
            .build()
            .unwrap()
    }

    #[test]
    fn json_value_round_trips_through_text() {
        let doc = JsonValue::Object(vec![
            ("a".into(), JsonValue::Num(1.5)),
            (
                "b".into(),
                JsonValue::Array(vec![
                    JsonValue::Null,
                    JsonValue::Bool(true),
                    JsonValue::Str("x \"y\"\n\t\\z".into()),
                ]),
            ),
            ("c".into(), JsonValue::Num(-0.0)),
            ("d".into(), JsonValue::Str("π ≠ 3".into())),
        ]);
        let text = doc.to_json_string();
        assert_eq!(parse_json(&text).unwrap(), doc);
    }

    #[test]
    fn awkward_floats_round_trip_bit_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324, // subnormal
            -2.225_073_858_507_201e-308,
            1e-10,
            123_456_789.123_456_78,
        ] {
            let text = JsonValue::Num(x).to_json_string();
            let back = parse_json(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} -> {text}");
        }
    }

    #[test]
    fn malformed_documents_report_typed_parse_errors() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1,}",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "nul",
            "[1] trailing",
            "{\"a\":1,\"a\":2}",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            let err = parse_json(bad).expect_err(bad);
            assert!(matches!(err, CodecError::Parse { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let doc = "[".repeat(MAX_JSON_DEPTH + 8) + &"]".repeat(MAX_JSON_DEPTH + 8);
        assert!(matches!(parse_json(&doc), Err(CodecError::Parse { .. })));
    }

    #[test]
    fn scenario_round_trips_to_equality() {
        let s = Scenario::hot_spot(tiny(0.3), 0.9)
            .unwrap()
            .with_load_scale(1.7)
            .unwrap()
            .without_tcp()
            .named("chaos/hot-spot");
        let back = scenario_from_json(&scenario_to_json(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn graph_round_trip_preserves_derived_fields() {
        let graph = CellGraph::from_weighted_adjacency(vec![
            vec![(1, 8.0), (2, 1.0), (3, 1.0)],
            vec![(0, 1.0)],
            vec![(0, 1.0)],
            vec![(0, 1.0)],
        ])
        .unwrap();
        let back = graph_from_json_value(&graph_to_json_value(&graph), "graph").unwrap();
        assert_eq!(back, graph);
    }

    #[test]
    fn scenario_decode_rejects_missing_and_invalid_fields() {
        let s = Scenario::homogeneous(tiny(0.4)).unwrap();
        let good = scenario_to_json(&s);
        // Missing format tag.
        let doc = good.replacen("\"format\":\"gprs-scenario/v1\",", "", 1);
        assert!(matches!(
            scenario_from_json(&doc),
            Err(CodecError::Schema { .. })
        ));
        // Truncation mid-document.
        let truncated = &good[..good.len() / 2];
        assert!(matches!(
            scenario_from_json(truncated),
            Err(CodecError::Parse { .. })
        ));
        // Structurally fine, semantically invalid (negative rate).
        let doc = good.replace("\"call_arrival_rate\":0.4", "\"call_arrival_rate\":-1");
        assert!(matches!(
            scenario_from_json(&doc),
            Err(CodecError::Invalid { .. })
        ));
        // Bad traffic params must be a typed error, not a panic.
        let doc = good.replace("\"packets_per_call\":25", "\"packets_per_call\":0");
        assert!(matches!(
            scenario_from_json(&doc),
            Err(CodecError::Schema { .. })
        ));
    }

    #[test]
    fn solve_options_round_trip_including_sentinels() {
        let opts = SolveOptions {
            max_wall_time: Some(Duration::new(3, 141_592_653)),
            divergence_factor: f64::INFINITY,
            ..SolveOptions::default()
        };
        let value = solve_options_to_json_value(&opts);
        let back =
            solve_options_from_json_value(&parse_json(&value.to_json_string()).unwrap(), "solve")
                .unwrap();
        assert_eq!(back.max_wall_time, opts.max_wall_time);
        assert!(back.divergence_factor.is_infinite());
        assert_eq!(back.tolerance, opts.tolerance);
        // The defaults round-trip too.
        let defaults = SolveOptions::default();
        let text = solve_options_to_json_value(&defaults).to_json_string();
        let back = solve_options_from_json_value(&parse_json(&text).unwrap(), "solve").unwrap();
        assert_eq!(back, defaults);
        // Values the solvers cannot run with are schema errors naming
        // the field, not a solve that burns its sweep budget.
        for (doc, at) in [
            ("{\"sor_omega\":0}", "solve.sor_omega"),
            ("{\"sor_omega\":2}", "solve.sor_omega"),
            ("{\"sor_omega\":-0.5}", "solve.sor_omega"),
            ("{\"divergence_factor\":1}", "solve.divergence_factor"),
            ("{\"divergence_factor\":0.5}", "solve.divergence_factor"),
            ("{\"tolerance\":0}", "solve.tolerance"),
            ("{\"tolerance\":-1e-8}", "solve.tolerance"),
        ] {
            match solve_options_from_json_value(&parse_json(doc).unwrap(), "solve") {
                Err(CodecError::Schema { path, .. }) => assert_eq!(path, at, "{doc}"),
                other => panic!("{doc}: expected a schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn cluster_options_round_trip_and_default_fallback() {
        // Non-default values round-trip, the Jacobi ordering among them.
        let opts = ClusterSolveOptions {
            ordering: SweepOrdering::Jacobi,
            max_iterations: 123,
            shards: 4,
            ..ClusterSolveOptions::default()
        };
        let text = cluster_options_to_json_value(&opts).to_json_string();
        let back = cluster_options_from_json_value(&parse_json(&text).unwrap(), "").unwrap();
        assert_eq!(back.max_iterations, 123);
        assert_eq!(back.ordering, SweepOrdering::Jacobi);
        assert_eq!(back.shards, 4);
        // An empty object is all defaults; unknown keys are ignored, so
        // one carrying only a retired switch (the relaxation controller,
        // the surrogate, whatever its value's type) is too.
        let defaults = cluster_options_from_json_value(&parse_json("{}").unwrap(), "").unwrap();
        for doc in [
            "{\"adaptive_relaxation\":false}",
            "{\"surrogate\":true}",
            "{\"surrogate\":\"yes\"}",
        ] {
            let legacy = parse_json(doc).unwrap();
            assert_eq!(
                cluster_options_from_json_value(&legacy, "").unwrap(),
                defaults,
                "{doc}"
            );
        }
        assert_eq!(defaults.max_iterations, 500);
        assert_eq!(
            defaults.ordering,
            SweepOrdering::GaussSeidel,
            "a spec without an ordering key runs Gauss–Seidel"
        );
        assert_eq!(
            defaults.shards, 0,
            "missing shards falls back to the thread-count default"
        );
        // Unknown ordering labels are typed schema errors.
        assert!(matches!(
            cluster_options_from_json_value(&parse_json("{\"ordering\":\"sor\"}").unwrap(), ""),
            Err(CodecError::Schema { .. })
        ));
        // So are tolerances no fixed point could meet, at either level.
        for (doc, at) in [
            ("{\"tolerance\":0}", "cluster.tolerance"),
            ("{\"tolerance\":-1}", "cluster.tolerance"),
            ("{\"solve\":{\"tolerance\":0}}", "cluster.solve.tolerance"),
            ("{\"solve\":{\"sor_omega\":0}}", "cluster.solve.sor_omega"),
        ] {
            match cluster_options_from_json_value(&parse_json(doc).unwrap(), "cluster") {
                Err(CodecError::Schema { path, .. }) => assert_eq!(path, at, "{doc}"),
                other => panic!("{doc}: expected a schema error, got {other:?}"),
            }
        }
    }
}
