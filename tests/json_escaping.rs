//! Cross-crate JSON contract: every string `ic-obs`'s hand-rolled
//! writer emits must round-trip through `ic-scenario`'s hand-rolled
//! parser, and the two crates' string writers must emit the same bytes.
//! The two codecs are written independently (the writer is
//! allocation-averse, the parser is diagnostic-happy), so this is the
//! place where their corner cases — C0 controls, DEL, astral-plane
//! unicode — are forced to agree.

use immersion_cloud::obs::json::{write_escaped, write_fields, Value};
use immersion_cloud::scenario::json::{self, Json};

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
    write_escaped(s, &mut encoded);
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
fn both_writers_emit_identical_bytes() {
    for s in control_samples().chain(UNICODE_SAMPLES.map(String::from)) {
        let mut obs = String::new();
        write_escaped(&s, &mut obs);
        let mut scenario = String::new();
        json::write_escaped(&mut scenario, &s);
        assert_eq!(obs, scenario, "writers disagree on {s:?}");
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
