//! JSON contract: every string the workspace's one JSON codec
//! (`ic_sim::json`) writes must parse back to itself, and `ic-obs`'s
//! trace-field encoding (`Value`, `write_fields`), which writes through
//! that codec, must produce documents the parser reads back exactly.
//! This is where the codec's corner cases — C0 controls, DEL,
//! astral-plane unicode — are pinned.

use immersion_cloud::obs::json::{write_fields, Value};
use immersion_cloud::sim::json::{self, write_escaped, Json};

/// BMP and astral-plane strings, with a few escapes mixed in.
const UNICODE_SAMPLES: [&str; 6] = [
    "🦀 ferris",
    "math \u{1d4b3} italic",
    "max \u{10FFFF} scalar",
    "中文字段",
    "c1 range \u{80}\u{9f} stays raw",
    "mixed \t tab \u{7f} del 🦀 crab \"quoted\" back\\slash",
];

/// `a<ch>b` for every C0 control and DEL.
fn control_samples() -> impl Iterator<Item = String> {
    (0u32..0x20)
        .chain([0x7f])
        .map(|code| format!("a{}b", char::from_u32(code).expect("valid control char")))
}

fn roundtrip(s: &str) -> String {
    let mut encoded = String::new();
    write_escaped(&mut encoded, s);
    match json::parse(&encoded) {
        Ok(Json::Str(decoded)) => decoded,
        other => panic!("{encoded:?} did not parse back to a string: {other:?}"),
    }
}

#[test]
fn every_c0_control_and_del_round_trips() {
    for s in control_samples() {
        assert_eq!(roundtrip(&s), s, "{s:?} failed to round-trip");
    }
}

#[test]
fn bmp_and_astral_plane_unicode_round_trips() {
    for s in UNICODE_SAMPLES {
        assert_eq!(roundtrip(s), s);
    }
}

#[test]
fn field_maps_with_hostile_keys_and_values_parse_as_objects() {
    let fields = vec![
        ("plain", Value::U64(7)),
        ("ratio", Value::F64(0.125)),
        ("flag", Value::Bool(true)),
        ("nasty\nstring", Value::str("line1\nline2\u{7f}🦀")),
    ];
    let mut out = String::from("{");
    write_fields(&fields, &mut out);
    out.push('}');
    let doc = json::parse(&out).expect("field map parses");
    assert_eq!(doc.get("plain"), Some(&Json::Num(7.0)));
    assert_eq!(doc.get("ratio"), Some(&Json::Num(0.125)));
    assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("nasty\nstring"),
        Some(&Json::Str("line1\nline2\u{7f}🦀".to_string()))
    );
}

#[test]
fn value_to_json_round_trips_numbers_exactly() {
    for v in [0.0, -1.5, 1e-9, 12345678.25, f64::MAX] {
        let encoded = Value::F64(v).to_json();
        match json::parse(&encoded) {
            Ok(Json::Num(parsed)) => assert_eq!(parsed, v, "{encoded}"),
            other => panic!("{encoded:?} parsed as {other:?}"),
        }
    }
}
