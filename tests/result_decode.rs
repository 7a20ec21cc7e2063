//! The typed result decode agrees with the tree decode. A cache hit decodes
//! its stored text with `serde_json::from_str::<ScenarioResult>`, which
//! reads the result straight from the text; `ScenarioResult::from_value`
//! decodes a parsed `serde::Value` tree. For every input here the two must
//! both fail, or both succeed with byte-identical JSON: the golden
//! fixtures, results with each optional section, every single-bit flip of
//! a small result's text, and hand-written edge cases.

use serde::{Deserialize, Value};
use wlan_sa::core::{RunContext, ScenarioResult};
use wlan_sa::{Protocol, Scenario, SimDuration, TopologySpec, TrafficSpec};

/// Decodes `text` both ways and checks they agree; returns the typed result.
fn decode_agrees(text: &str) -> Result<ScenarioResult, serde::Error> {
    let typed = serde_json::from_str::<ScenarioResult>(text);
    let tree = serde_json::from_str::<Value>(text).and_then(ScenarioResult::from_owned_value);
    match (&typed, &tree) {
        (Ok(a), Ok(b)) => assert_eq!(a.to_json(), b.to_json(), "{text}"),
        (Err(_), Err(_)) => {}
        _ => panic!("typed {typed:?} but tree {tree:?} for {text}"),
    }
    typed
}

/// A small wTOP-CSMA result with both optional sections: finite-load
/// traffic, and the controller telemetry a telemetry run adds.
fn small_result() -> ScenarioResult {
    let scenario = Scenario::new(Protocol::WTopCsma, TopologySpec::FullyConnected, 3)
        .durations(SimDuration::from_millis(20), SimDuration::from_millis(80))
        .update_period(SimDuration::from_millis(20))
        .traffic(TrafficSpec::poisson(200.0).with_queue_frames(8))
        .seed(5);
    let mut ctx = RunContext::new(1);
    ctx.telemetry = true;
    let result = ctx.run(&[scenario]).remove(0);
    assert!(result.traffic.is_some() && result.controller_telemetry.is_some());
    result
}

#[test]
fn the_golden_fixtures_decode_alike() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut fixtures = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().unwrap() == "event_digests.json" {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let result = decode_agrees(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            serde_json::to_string_pretty(&result).unwrap(),
            text.trim_end()
        );
        fixtures += 1;
    }
    assert_eq!(fixtures, 23);
}

#[test]
fn results_with_each_optional_section_decode_alike() {
    let full = small_result();
    let mut without_telemetry = full.clone();
    without_telemetry.controller_telemetry = None;
    let mut without_traffic = full.clone();
    without_traffic.traffic = None;
    for result in [&full, &without_telemetry, &without_traffic] {
        let json = result.to_json();
        assert_eq!(decode_agrees(&json).unwrap().to_json(), json);
        let pretty = serde_json::to_string_pretty(result).unwrap();
        assert_eq!(decode_agrees(&pretty).unwrap().to_json(), json);
    }
}

/// Each byte of a small result's text flipped in its lowest bit and in its
/// ASCII case bit: both decoders fail, or both read the same result.
#[test]
fn every_single_byte_flip_decodes_alike() {
    let json = small_result().to_json();
    let (mut accepted, mut rejected) = (0, 0);
    for (at, flip) in (0..json.len()).flat_map(|at| [(at, 0x01), (at, 0x20)]) {
        let mut bytes = json.clone().into_bytes();
        bytes[at] ^= flip;
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        match decode_agrees(&text) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    // Digit flips keep the text a valid result; most others break it.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn hand_written_edge_cases_decode_alike() {
    let json = small_result().to_json();
    let body = json.strip_prefix('{').unwrap();
    let n = |text: &str| decode_agrees(text).map(|r| r.n);
    // `field`'s value replaced by `value`; `field` holds a scalar or an
    // array of scalars, so its value runs to the next `,"`.
    let with_field = |field: &str, value: &str| {
        let start = json.find(&format!("\"{field}\":")).unwrap() + field.len() + 3;
        let end = start + json[start..].find(",\"").unwrap();
        format!("{}{value}{}", &json[..start], &json[end..])
    };

    // A repeated key: the first occurrence wins, and a later one is parsed
    // but not decoded, so its type does not matter.
    assert_eq!(n(&format!("{{\"n\":7,{body}")), Ok(7));
    let trailing_dup = format!("{},\"n\":\"four\"}}", json.strip_suffix('}').unwrap());
    assert_eq!(n(&trailing_dup), Ok(3));
    assert!(n(&format!("{},\"n\":tru}}", json.strip_suffix('}').unwrap())).is_err());
    // An unknown key is parsed and dropped; it must still be valid JSON.
    assert_eq!(n(&format!("{{\"extra\":[1,{{\"a\":null}}],{body}")), Ok(3));
    for bad in ["[1 2]", "tru", "{\"a\"}", "[1,]", "\"open"] {
        assert!(n(&format!("{{\"extra\":{bad},{body}")).is_err(), "{bad}");
    }
    // A missing required field fails; a missing optional one is `None`.
    assert!(n(&json.replacen("\"hidden_pairs\":0,", "", 1)).is_err());
    let mut saturated = small_result();
    saturated.traffic = None;
    let null_traffic = format!(
        "{},\"traffic\":null}}",
        saturated.to_json().strip_suffix('}').unwrap()
    );
    assert!(decode_agrees(&null_traffic).unwrap().traffic.is_none());
    // Numbers convert as the tree's `from_value` does.
    let probabilities = with_field("station_attempt_probabilities", "[null,0.5,1]");
    let probabilities = decode_agrees(&probabilities)
        .unwrap()
        .station_attempt_probabilities;
    assert_eq!(probabilities, [None, Some(0.5), Some(1.0)]);
    let five = decode_agrees(&with_field("throughput_mbps", "5")).unwrap();
    assert_eq!(five.throughput_mbps.to_bits(), 5.0f64.to_bits());
    assert_eq!(n(&with_field("n", "4.0")), Ok(4));
    assert!(n(&with_field("n", "4.5")).is_err());
    assert!(n(&with_field("n", "-1")).is_err());
    let negative_zero = decode_agrees(&with_field("avg_idle_slots", "-0.0")).unwrap();
    assert_eq!(negative_zero.avg_idle_slots.to_bits(), (-0.0f64).to_bits());
    // An escaped protocol name decodes to the plain one.
    let escaped = decode_agrees(&with_field("protocol", "\"wTOP\\u002dCSMA\"")).unwrap();
    assert_eq!(escaped.protocol, "wTOP-CSMA");
    // Trailing whitespace is fine, trailing input is not.
    assert_eq!(n(&format!("{json} \n")), Ok(3));
    assert!(n(&format!("{json} x")).is_err());
    assert!(n(&format!("{json}{json}")).is_err());
    // Not an object at all.
    for text in ["", "null", "[]", "\"result\""] {
        assert!(n(text).is_err(), "{text:?}");
    }
}
