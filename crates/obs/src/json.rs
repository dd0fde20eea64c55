//! Trace-field values and their JSON encoding.
//!
//! A [`Value`] is one field of a flight-recorder span or instant.
//! Strings and floats are written by the workspace's one JSON codec,
//! [`ic_sim::json`], so trace exports follow the same byte-stable rules
//! (shortest round-trip floats, non-finite floats as `null`, RFC 8259
//! escaping) as scenario files and experiment records.

use ic_sim::json::{write_escaped, write_f64};
use std::fmt::Write as _;

/// A structured field value attached to trace events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (emitted without a decimal point).
    I64(i64),
    /// Unsigned integer (emitted without a decimal point).
    U64(u64),
    /// Floating-point number; NaN and infinities encode as `null`.
    F64(f64),
    /// String (escaped per RFC 8259).
    Str(String),
}

impl Value {
    /// Convenience constructor for string fields.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Appends this value's JSON encoding to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => write_f64(out, *v),
            Value::Str(s) => write_escaped(out, s),
        }
    }

    /// This value as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// Appends a `"key":value` pair list (no braces) for the given fields.
pub fn write_fields(fields: &[(&str, Value)], out: &mut String) {
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, key);
        out.push(':');
        value.write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_encode() {
        assert_eq!(Value::Null.to_json(), "null");
        assert_eq!(Value::Bool(true).to_json(), "true");
        assert_eq!(Value::I64(-3).to_json(), "-3");
        assert_eq!(
            Value::U64(18_446_744_073_709_551_615).to_json(),
            "18446744073709551615"
        );
        assert_eq!(Value::F64(1.5).to_json(), "1.5");
        assert_eq!(Value::F64(1.0).to_json(), "1");
        assert_eq!(Value::F64(f64::NAN).to_json(), "null");
        assert_eq!(Value::F64(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Value::str("a\"b\\c\n").to_json(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(Value::str("\u{1}").to_json(), "\"\\u0001\"");
        assert_eq!(Value::str("héllo").to_json(), "\"héllo\"");
    }

    #[test]
    fn every_c0_control_and_del_escape_as_u_sequences() {
        for cp in (0u32..0x20).chain([0x7f]) {
            let c = char::from_u32(cp).unwrap();
            let enc = Value::str(c.to_string()).to_json();
            assert!(
                !enc.chars().any(|c| c.is_control()),
                "raw control {cp:#04x} leaked into {enc:?}"
            );
            match c {
                '\n' => assert_eq!(enc, "\"\\n\""),
                '\r' => assert_eq!(enc, "\"\\r\""),
                '\t' => assert_eq!(enc, "\"\\t\""),
                _ => assert_eq!(enc, format!("\"\\u{cp:04x}\"")),
            }
        }
    }

    #[test]
    fn astral_plane_and_bmp_unicode_pass_through_raw() {
        // Raw (unescaped) non-ASCII is valid JSON; the encoder never
        // uses surrogate-pair escapes, keeping output bytes == input
        // bytes for printable text.
        for s in ["🦀", "𝒳", "\u{10FFFF}", "中文", "\u{80}", "\u{9f}"] {
            assert_eq!(Value::str(s).to_json(), format!("\"{s}\""));
        }
    }

    #[test]
    fn floats_round_trip() {
        for v in [0.1, 1e-9, 123456.789, 2.2250738585072014e-308] {
            let enc = Value::F64(v).to_json();
            let back: f64 = enc.parse().unwrap();
            assert_eq!(back, v, "{enc}");
        }
    }

    #[test]
    fn field_lists_join() {
        let mut out = String::new();
        write_fields(&[("a", Value::U64(1)), ("b", Value::str("x"))], &mut out);
        assert_eq!(out, "\"a\":1,\"b\":\"x\"");
    }
}
